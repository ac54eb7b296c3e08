package catalog

import (
	"fmt"
	"strings"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/parser"
)

// benchChainLen is the hop count of the benchmark catalog's main chain.
const benchChainLen = 12

// benchCatalog builds a catalog shaped like a real deployment: a linear
// evolution chain s0→s1→…→sN plus a dead-end branch off every version,
// so path resolution has genuine graph work (parallel candidates to
// reject, adjacency over a few dozen mappings) rather than a two-node
// toy.
func benchCatalog(b *testing.B) *Catalog {
	b.Helper()
	c := New()
	schema := func(name, rel string) {
		sch := algebra.NewSchema()
		sch.Sig[rel] = 2
		if _, err := c.RegisterSchema(name, sch); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i <= benchChainLen; i++ {
		schema(fmt.Sprintf("s%d", i), fmt.Sprintf("R%d", i))
		schema(fmt.Sprintf("dead%d", i), fmt.Sprintf("X%d", i))
	}
	for i := 0; i < benchChainLen; i++ {
		cs := parser.MustParseConstraints(fmt.Sprintf("R%d <= R%d", i, i+1))
		if _, err := c.RegisterMapping(fmt.Sprintf("m%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1), cs); err != nil {
			b.Fatal(err)
		}
		dead := parser.MustParseConstraints(fmt.Sprintf("R%d <= X%d", i, i))
		if _, err := c.RegisterMapping(fmt.Sprintf("d%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("dead%d", i), dead); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkCatalogReadParallel measures the concurrent read path that
// every compose request takes before ELIMINATE runs: resolve the
// endpoint pair and materialize the mapping chain. Run with -cpu 8 (or
// higher) to measure contention; EXPERIMENTS.md records the mutex
// baseline against the copy-on-write snapshot store.
func BenchmarkCatalogReadParallel(b *testing.B) {
	c := benchCatalog(b)
	from, to := "s0", fmt.Sprintf("s%d", benchChainLen)
	b.Run("chain", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, _, err := c.Chain(from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("path", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := c.Path(from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("snapshot", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				schemas, maps, _ := c.Snapshot()
				if len(schemas) == 0 || len(maps) == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	})
}

// clusterCatalog builds the catalog shape of the serving benchmark:
// 1,026 schemas in 228 chain clusters c<i>s0 → … → c<i>s<k>, with 2–5
// hops per cluster. Clusters alternate between invertible permutation
// hops (routable both ways over derived inverses), containment hops
// (forward only) and a mix of the two. Each cluster is one Apply, as a
// client registers it. clusterTask renders a cluster's task file; the
// two body variants differ in every hop, so republishing a cluster
// with the other variant changes all of its routes.
func clusterCatalog(tb testing.TB) *Catalog {
	tb.Helper()
	c := New()
	for i := 0; i < 228; i++ {
		p, err := parser.Parse(clusterTask(i, 0))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := c.Apply(p); err != nil {
			tb.Fatal(err)
		}
	}
	if n := len(c.Snap().v.schemaList); n != 1026 {
		tb.Fatalf("cluster catalog has %d schemas, want 1026", n)
	}
	return c
}

func clusterTask(i, variant int) string {
	var b strings.Builder
	hops := 2 + (i/3)%4
	for j := 0; j <= hops; j++ {
		fmt.Fprintf(&b, "schema c%ds%d { X%d_%d/2; Y%d_%d/2; }\n", i, j, i, j, i, j)
	}
	for j := 0; j < hops; j++ {
		x, y := fmt.Sprintf("X%d_%d", i, j), fmt.Sprintf("Y%d_%d", i, j)
		x2, y2 := fmt.Sprintf("X%d_%d", i, j+1), fmt.Sprintf("Y%d_%d", i, j+1)
		body := fmt.Sprintf("proj[2,1](%s) = %s; %s = %s;", x, x2, y, y2)
		if variant == 1 {
			body = fmt.Sprintf("%s = %s; proj[2,1](%s) = %s;", x, x2, y, y2)
		}
		if i%3 == 1 || i%3 == 2 && j%2 == 1 {
			body = fmt.Sprintf("%s <= %s; %s <= %s;", x, x2, y, y2)
			if variant == 1 {
				body = fmt.Sprintf("sel[#1=#2](%s) <= %s; %s <= %s;", x, x2, y, y2)
			}
		}
		fmt.Fprintf(&b, "map m%d_%d : c%ds%d -> c%ds%d { %s }\n", i, j, i, j, i, j+1, body)
	}
	return b.String()
}

// republished returns the snapshots on either side of republishing one
// cluster of clusterCatalog with its other body variant — what one
// register costs the publish hook on the serving benchmark.
func republished(tb testing.TB) (old, new Snap) {
	tb.Helper()
	c := clusterCatalog(tb)
	old = c.Snap()
	p, err := parser.Parse(clusterTask(117, 1))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Apply(p); err != nil {
		tb.Fatal(err)
	}
	return old, c.Snap()
}

// BenchmarkComputeDelta measures the publish hook's snapshot diff for a
// one-cluster register on the 1,026-schema catalog.
func BenchmarkComputeDelta(b *testing.B) {
	old, new := republished(b)
	b.ReportAllocs()
	for b.Loop() {
		ComputeDelta(old, new)
	}
}

// TestComputeDeltaAllocBound pins the cost of a one-cluster register
// on the 1,026-schema catalog. Searching every schema, as
// computeDeltaFull does, makes 14,726 allocations here (two searches
// of four length-S slices per schema); ComputeDelta searches only the
// republished cluster's six schemas and makes 148 (Go 1.24,
// linux/amd64). The bound leaves about 2.4× headroom for runtime and
// map-growth drift and stays far below what searching every schema
// costs.
func TestComputeDeltaAllocBound(t *testing.T) {
	old, new := republished(t)
	d := ComputeDelta(old, new)
	if diff := sameDelta(d, computeDeltaFull(old, new)); diff != "" {
		t.Fatalf("delta disagrees with the full sweep: %s", diff)
	}
	// Cluster 117 has 2 + (117/3)%4 = 5 hops: its 6 schemas give 15
	// forward pairs, all re-materialized.
	if len(d.Changed) < 15 || len(d.Lost) != 0 || len(d.Gained) != 0 {
		t.Fatalf("republish delta: %d changed, %d lost, %d gained", len(d.Changed), len(d.Lost), len(d.Gained))
	}
	const bound = 350
	if got := testing.AllocsPerRun(10, func() { ComputeDelta(old, new) }); got > bound {
		t.Fatalf("ComputeDelta made %.0f allocations per call, bound %d", got, bound)
	}
}
