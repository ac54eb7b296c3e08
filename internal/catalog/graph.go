package catalog

import "iter"

// GraphStats summarizes one snapshot's bidirectional mapping graph:
// edge counts by provenance, reachability with and without the derived
// inverses, and the per-reason inversion-verdict tally across every
// registered constraint. The serving layer exposes it on /v1/stats and
// /metrics; the reachable-pair ratio is the headline number — how many
// endpoint pairs inversion opened without a single new registration.
type GraphStats struct {
	// Schemas and Mappings are the node count and registered-mapping
	// count of the graph.
	Schemas, Mappings int
	// RegisteredEdges and DerivedEdges count graph edges by provenance.
	// RegisteredEdges == Mappings; DerivedEdges == InvertibleMappings.
	RegisteredEdges, DerivedEdges int
	// InvertibleMappings counts registered mappings whose every
	// constraint passed the quasi-inverse judgement.
	InvertibleMappings int
	// ReachablePairs counts ordered schema pairs (a, b), a ≠ b,
	// connected over the full bidirectional graph; ForwardReachablePairs
	// counts them over registered edges only. Their ratio is the
	// reachability multiplier inversion buys.
	ReachablePairs, ForwardReachablePairs int
	// Verdicts tallies constraint-level inversion verdicts across all
	// registered mappings, keyed by reason ("ok" for invertible).
	Verdicts map[string]int
}

// graphStats computes the statistics for this view. Cost is two BFS
// sweeps per schema, O(S·(S+E)), so it is computed lazily on first
// request and cached on the immutable view; every later call on the
// same snapshot is a pointer load.
func (v *view) graphStats() *GraphStats {
	if gs := v.graph.Load(); gs != nil {
		return gs
	}
	gs := &GraphStats{
		Schemas:  len(v.schemaList),
		Mappings: len(v.mapList),
		Verdicts: make(map[string]int),
	}
	for _, m := range v.mapList {
		inv := v.inversions[m.Name]
		if inv.Invertible() {
			gs.InvertibleMappings++
		}
		for _, vd := range inv.Verdicts {
			gs.Verdicts[string(vd.Reason)]++
		}
	}
	for _, es := range v.edges {
		for i := range es {
			if es[i].inv {
				gs.DerivedEdges++
			} else {
				gs.RegisteredEdges++
			}
		}
	}
	for src := range v.schemaList {
		_, _, order := v.bfsFrom(src)
		gs.ReachablePairs += len(order)
		gs.ForwardReachablePairs += len(v.forwardOrder(src))
	}
	// Benign publication race: two readers may both compute and store;
	// the results are identical because the view is immutable.
	v.graph.Store(gs)
	return gs
}

// forwardOrder is the discovery order of a registered-edges-only BFS
// from src — the graph as it was before derived inverses existed.
func (v *view) forwardOrder(src int) []int {
	n := len(v.schemaList)
	visited := make([]bool, n)
	visited[src] = true
	order := make([]int, 0, n)
	queue := []int{src}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		es := v.edges[h]
		for i := range es {
			if es[i].inv || visited[es[i].to] {
				continue
			}
			visited[es[i].to] = true
			order = append(order, es[i].to)
			queue = append(queue, es[i].to)
		}
	}
	return order
}

// ReachablePairs yields every ordered schema pair (from, to), from ≠
// to, connected over this snapshot's bidirectional graph: sources in
// name order, each source's targets in name order. It runs one BFS per
// source, O(S·(S+E)) for a full sweep, and stops early when the
// consumer breaks — where probing every pair with Catalog.Path would
// pay a failed search plus the reverse-reachability diagnosis per
// unreachable pair.
func (s Snap) ReachablePairs() iter.Seq2[string, string] {
	return func(yield func(from, to string) bool) {
		v := s.v
		for src, from := range v.schemaList {
			via, _, _ := v.bfsFrom(src)
			for dst, e := range via {
				if e != nil && !yield(from.Name, v.schemaList[dst].Name) {
					return
				}
			}
		}
	}
}

// GraphStats returns the (lazily computed, cached) graph statistics of
// this snapshot.
func (s Snap) GraphStats() *GraphStats { return s.v.graphStats() }

// GraphStats returns the graph statistics of the current snapshot.
func (c *Catalog) GraphStats() *GraphStats { return c.snap.Load().graphStats() }
