package main

// Input generators. Everything the program under test receives — the
// task files it registers and the requests it serves — is derived here
// from the workload seed; the program sees only those files and
// requests.

import (
	"fmt"
	"math/rand"
	"strings"
)

// minSchemas is the catalog size the serving workloads generate.
const minSchemas = 1024

// hopKind names one mapping template between adjacent cluster schemas.
// Each template has two body variants so a republish always changes the
// cluster's routes.
type hopKind int

const (
	hopPerm   hopKind = iota // invertible permutation equalities: unfolding, derived inverses
	hopSub                   // plain containments: left compose
	hopInter                 // intersection on the left: right compose
	hopSkolem                // containment into a projection: Skolemized right compose
	hopDefine                // defining equality (not invertible): view unfolding
)

// hopBody renders the constraints of one hop from schema a to schema b
// of cluster c. Every schema has two binary relations X and Y.
func hopBody(k hopKind, variant, c, a, b int) string {
	xa, ya := fmt.Sprintf("X%d_%d", c, a), fmt.Sprintf("Y%d_%d", c, a)
	xb, yb := fmt.Sprintf("X%d_%d", c, b), fmt.Sprintf("Y%d_%d", c, b)
	switch k {
	case hopPerm:
		if variant == 0 {
			return fmt.Sprintf("proj[2,1](%s) = %s; %s = %s;", xa, xb, ya, yb)
		}
		return fmt.Sprintf("%s = %s; proj[2,1](%s) = %s;", xa, xb, ya, yb)
	case hopSub:
		if variant == 0 {
			return fmt.Sprintf("%s <= %s; %s <= %s;", xa, xb, ya, yb)
		}
		return fmt.Sprintf("sel[#1=#2](%s) <= %s; %s <= %s;", xa, xb, ya, yb)
	case hopInter:
		if variant == 0 {
			return fmt.Sprintf("%s & %s <= %s; %s <= %s;", xa, ya, xb, ya, yb)
		}
		return fmt.Sprintf("%s & %s <= %s; proj[2,1](%s) <= %s;", xa, ya, xb, ya, yb)
	case hopSkolem:
		if variant == 0 {
			return fmt.Sprintf("%s <= proj[1,2](%s * %s); %s <= %s;", xa, xb, yb, ya, yb)
		}
		return fmt.Sprintf("%s <= proj[1,4](%s * %s); %s <= %s;", xa, xb, yb, ya, yb)
	default: // hopDefine
		if variant == 0 {
			return fmt.Sprintf("%s + %s = %s; %s <= %s;", xa, ya, xb, ya, yb)
		}
		return fmt.Sprintf("%s & %s = %s; %s <= %s;", xa, ya, xb, ya, yb)
	}
}

// cluster is one connected chain of schemas c<i>s0 → … → c<i>s<k-1>.
type cluster struct {
	Schemas []string
	hops    []hopKind
	idx     int
}

// taskFile renders the cluster as one task file (all its schemas and
// mappings, one atomic registration) with the given body variant.
func (c *cluster) taskFile(variant int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- cluster %d, body variant %d\n", c.idx, variant)
	for j, s := range c.Schemas {
		fmt.Fprintf(&b, "schema %s { X%d_%d/2; Y%d_%d/2; }\n", s, c.idx, j, c.idx, j)
	}
	for j, k := range c.hops {
		fmt.Fprintf(&b, "map m%d_%d : %s -> %s { %s }\n", c.idx, j, c.Schemas[j], c.Schemas[j+1],
			hopBody(k, variant, c.idx, j, j+1))
	}
	return b.String()
}

// genClusters builds clusters until the catalog holds minSchemas
// schemas. The mix is fixed — cluster i has shape i mod 3, 2 + (i/3)
// mod 4 hops, and its non-invertible hops cycle through the
// containment-family templates — and the seed only shuffles which
// cluster index (and so which schema names) gets which shape, so every
// seed gives a catalog with the same cost profile. Shapes: all
// permutation equalities (every pair reachable both ways, the reverse
// ones over derived inverses), containment-family hops only
// (forward-only), and permutation hops alternating with
// containment-family hops.
func genClusters(seed int64) []*cluster {
	type shape struct{ kind, hops, first int }
	var shapes []shape
	for n, i := 0, 0; n < minSchemas; i++ {
		s := shape{kind: i % 3, hops: 2 + (i/3)%4, first: i / 12}
		shapes = append(shapes, s)
		n += s.hops + 1
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	others := []hopKind{hopSub, hopInter, hopSkolem, hopDefine}
	out := make([]*cluster, len(shapes))
	for i, s := range shapes {
		c := &cluster{idx: i}
		for j := 0; j <= s.hops; j++ {
			c.Schemas = append(c.Schemas, fmt.Sprintf("c%ds%d", i, j))
		}
		for j := 0; j < s.hops; j++ {
			k := hopPerm
			if s.kind == 1 || s.kind == 2 && j%2 == 1 {
				k = others[(s.first+j)%len(others)]
			}
			c.hops = append(c.hops, k)
		}
		out[i] = c
	}
	return out
}

// pairRef is one requested ordered schema pair with its oracle results,
// one per body variant of its cluster.
type pairRef struct {
	From, To string
	Cluster  int
	Path     [2]string // route mapping names joined by ","
	FP       [2]string // oracle fingerprint per variant
}
