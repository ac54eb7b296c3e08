package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"mapcomp"
	"mapcomp/internal/catalog"
	"mapcomp/internal/parser"
)

// workingSet is the number of serve-hot pairs; its cached results take
// a few MB, well inside mapcompd's default 64 MiB cache budget.
const workingSet = 1024

// planServe writes the serving workloads' task files and computes each
// requested pair's expected result. The oracle runs here, in the
// orchestrator, on a catalog of its own built from the same files, so
// the children that time the server never see its memo-cache warmth.
func planServe(p *plan) error {
	clusters := genClusters(p.Seed)
	variants := 1
	if p.Workload == wlChurn {
		variants = 2
	}
	p.Files = make([][2]string, len(clusters))
	p.Clusters = make([][]string, len(clusters))
	for i, c := range clusters {
		p.Clusters[i] = c.Schemas
		for v := 0; v < variants; v++ {
			path := filepath.Join(p.Dir, fmt.Sprintf("cluster-%03d.v%d.mc", i, v))
			if err := os.WriteFile(path, []byte(c.taskFile(v)), 0o644); err != nil {
				return err
			}
			p.Files[i][v] = path
		}
	}
	for v := 0; v < variants; v++ {
		cat := catalog.New()
		for i := range clusters {
			src, err := os.ReadFile(p.Files[i][v])
			if err != nil {
				return err
			}
			prob, err := parser.Parse(string(src))
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", p.Files[i][v], err)
			}
			if _, err := cat.Apply(prob); err != nil {
				return fmt.Errorf("oracle: %s: %w", p.Files[i][v], err)
			}
		}
		if err := oraclePairs(p, clusters, cat, v); err != nil {
			return err
		}
	}
	if p.Workload == wlHot {
		// The working set, hottest first: distinct pairs in seeded order.
		p.Working = rand.New(rand.NewSource(p.Seed ^ 0x5eed)).Perm(len(p.Pairs))[:min(workingSet, len(p.Pairs))]
	}
	return nil
}

// oraclePairs computes variant v's expected result for every ordered
// pair inside each cluster that the catalog can route. Variant 0 also
// defines the pair list; later variants must route the same pairs.
func oraclePairs(p *plan, clusters []*cluster, cat *catalog.Catalog, v int) error {
	snap := cat.Snap()
	k := 0
	for ci, c := range clusters {
		for _, a := range c.Schemas {
			for _, b := range c.Schemas {
				if a == b {
					continue
				}
				route, err := snap.Route(a, b)
				if err != nil {
					continue // unreachable pair (forward-only hop against its direction)
				}
				res, err := mapcomp.ComposeChain(route.Mappings(), nil)
				if err != nil {
					return fmt.Errorf("oracle: %s→%s: %w", a, b, err)
				}
				if v == 0 {
					p.Pairs = append(p.Pairs, pairRef{From: a, To: b, Cluster: ci})
				} else if k >= len(p.Pairs) || p.Pairs[k].From != a || p.Pairs[k].To != b {
					return fmt.Errorf("oracle: variant %d routes %s→%s, variant 0 does not", v, a, b)
				}
				pr := &p.Pairs[k]
				pr.Path[v] = strings.Join(route.Path, ",")
				pr.FP[v] = fmt.Sprintf("%016x", res.Constraints.Fingerprint())
				k++
			}
		}
	}
	if k != len(p.Pairs) {
		return fmt.Errorf("oracle: variant %d routes %d pairs, variant 0 routes %d", v, k, len(p.Pairs))
	}
	return nil
}
