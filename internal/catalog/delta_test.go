package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/parser"
)

// deltaCatalog builds the graph used across the delta tests:
//
//	a ─m_ab→ b ─m_bc→ c        (a→c is a two-hop chain)
//	x ─m_xy→ y                 (a disjoint island)
func deltaCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	for _, name := range []string{"a", "b", "c", "x", "y"} {
		if _, err := c.RegisterSchema(name, schemaOf(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	register := func(name, from, to string) {
		t.Helper()
		if _, err := c.RegisterMapping(name, from, to, constraintOf(t, from, to)); err != nil {
			t.Fatal(err)
		}
	}
	register("m_ab", "a", "b")
	register("m_bc", "b", "c")
	register("m_xy", "x", "y")
	return c
}

// schemaOf builds a one-relation schema R<name>/2.
func schemaOf(t *testing.T, name string) *algebra.Schema {
	t.Helper()
	p, err := parser.Parse("schema s { R" + name + "/2; }")
	if err != nil {
		t.Fatal(err)
	}
	return p.Schemas["s"]
}

// constraintOf builds the single containment Rfrom <= Rto.
func constraintOf(t *testing.T, from, to string) algebra.ConstraintSet {
	t.Helper()
	p, err := parser.Parse(
		"schema f { R" + from + "/2; }\nschema g { R" + to + "/2; }\n" +
			"map m : f -> g { R" + from + " <= R" + to + "; }")
	if err != nil {
		t.Fatal(err)
	}
	return p.Maps["m"].Constraints
}

func pairs(ps [][2]string) [][2]string {
	if len(ps) == 0 {
		return nil
	}
	return ps
}

// TestDeltaUnrelatedMutationIsEmpty: registering a disconnected schema
// changes no route — the delta names nothing and every existing pair
// survives.
func TestDeltaUnrelatedMutationIsEmpty(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.RegisterSchema("island", schemaOf(t, "island")); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	if d.FromGen != before.Generation() || d.ToGen != before.Generation()+1 {
		t.Fatalf("delta spans %d→%d, want %d→%d", d.FromGen, d.ToGen, before.Generation(), before.Generation()+1)
	}
	if pairs(d.Changed) != nil || pairs(d.Lost) != nil || pairs(d.Gained) != nil {
		t.Fatalf("unrelated mutation produced a non-empty delta: %+v", d)
	}
	if d.Invalidated("a", "c") {
		t.Fatal("a→c invalidated by an unrelated mutation")
	}
}

// TestDeltaMappingUpdateInvalidatesRoutesThroughIt: replacing m_ab
// invalidates every pair whose route crosses that edge (a→b, a→c) and
// nothing else.
func TestDeltaMappingUpdateInvalidatesRoutesThroughIt(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.RegisterMapping("m_ab", "a", "b", constraintOf(t, "a", "b")); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	want := [][2]string{{"a", "b"}, {"a", "c"}}
	if !reflect.DeepEqual(d.Changed, want) {
		t.Fatalf("Changed = %v, want %v", d.Changed, want)
	}
	if pairs(d.Lost) != nil || pairs(d.Gained) != nil {
		t.Fatalf("mapping update lost/gained pairs: %+v", d)
	}
	for _, p := range [][2]string{{"b", "c"}, {"x", "y"}} {
		if d.Invalidated(p[0], p[1]) {
			t.Fatalf("%v invalidated although its route does not cross m_ab", p)
		}
	}
}

// TestDeltaSchemaUpdateInvalidatesTouchingRoutes: re-registering schema
// b re-materializes both edges touching it, so every route through b is
// invalidated — including b as an endpoint.
func TestDeltaSchemaUpdateInvalidatesTouchingRoutes(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.RegisterSchema("b", schemaOf(t, "b")); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if !reflect.DeepEqual(d.Changed, want) {
		t.Fatalf("Changed = %v, want %v", d.Changed, want)
	}
	if d.Invalidated("x", "y") {
		t.Fatal("x→y invalidated by a schema update it never touches")
	}
}

// TestDeltaNewEdgeGainsAndReroutes: a new mapping c→x connects the two
// components (gained pairs) and a new direct a→c edge re-routes the
// two-hop chain (changed pair).
func TestDeltaNewEdgeGainsAndReroutes(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.RegisterMapping("m_cx", "c", "x", constraintOf(t, "c", "x")); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	wantGained := [][2]string{
		{"a", "x"}, {"a", "y"},
		{"b", "x"}, {"b", "y"},
		{"c", "x"}, {"c", "y"},
	}
	if !reflect.DeepEqual(d.Gained, wantGained) {
		t.Fatalf("Gained = %v, want %v", d.Gained, wantGained)
	}
	if pairs(d.Changed) != nil || pairs(d.Lost) != nil {
		t.Fatalf("pure extension changed/lost routes: %+v", d)
	}

	// Now shortcut a→c directly: the a→c route changes from the chain
	// to the direct edge; nothing else reachable from a via b changes.
	before = c.Snap()
	if _, err := c.RegisterMapping("m_ac", "a", "c", constraintOf(t, "a", "c")); err != nil {
		t.Fatal(err)
	}
	d = ComputeDelta(before, c.Snap())
	wantChanged := [][2]string{{"a", "c"}, {"a", "x"}, {"a", "y"}}
	if !reflect.DeepEqual(d.Changed, wantChanged) {
		t.Fatalf("Changed = %v, want %v (a's routes through the new shortcut)", d.Changed, wantChanged)
	}
	if d.Invalidated("a", "b") || d.Invalidated("b", "c") {
		t.Fatal("pairs off the shortcut invalidated")
	}
}

// TestDeltaAgreesWithRouteComparison is the delta's own oracle: across
// a sequence of mutations, a pair is invalidated iff resolving it in
// both snapshots yields different routes (path names or materialized
// mapping pointers), and route generations only move for invalidated
// or gained pairs.
func TestDeltaAgreesWithRouteComparison(t *testing.T) {
	c := deltaCatalog(t)
	names := []string{"a", "b", "c", "x", "y"}
	mutations := []func(){
		func() { c.RegisterSchema("z", schemaOf(t, "z")) },
		func() { c.RegisterMapping("m_xy", "x", "y", constraintOf(t, "x", "y")) },
		func() { c.RegisterMapping("m_yz", "y", "z", constraintOf(t, "y", "z")) },
		func() { c.RegisterSchema("c", schemaOf(t, "c")) },
		func() { c.RegisterMapping("m_ac", "a", "c", constraintOf(t, "a", "c")) },
	}
	for step, mutate := range mutations {
		before := c.Snap()
		mutate()
		after := c.Snap()
		d := ComputeDelta(before, after)
		for _, from := range names {
			for _, to := range names {
				if from == to {
					continue
				}
				oldR, oldErr := before.Route(from, to)
				newR, newErr := after.Route(from, to)
				switch {
				case oldErr == nil && newErr == nil:
					same := reflect.DeepEqual(oldR.Path, newR.Path)
					if same {
						for i := range oldR.ms {
							if oldR.ms[i] != newR.ms[i] {
								same = false
								break
							}
						}
					}
					if got := d.Invalidated(from, to); got == same {
						t.Fatalf("step %d: %s→%s invalidated=%v but route-same=%v", step, from, to, got, same)
					}
					if same && oldR.Gen != newR.Gen {
						t.Fatalf("step %d: %s→%s route unchanged but routeGen %d→%d", step, from, to, oldR.Gen, newR.Gen)
					}
				case oldErr == nil && newErr != nil:
					if !d.Invalidated(from, to) {
						t.Fatalf("step %d: %s→%s became unreachable but is not invalidated", step, from, to)
					}
				case oldErr != nil && newErr == nil:
					found := false
					for _, p := range d.Gained {
						if p == [2]string{from, to} {
							found = true
						}
					}
					if !found {
						t.Fatalf("step %d: %s→%s became reachable but is not in Gained", step, from, to)
					}
				}
			}
		}
	}
}

// TestPublishHookOrderedPerMutation: the hook sees every publication,
// in generation order, with adjacent snapshots.
func TestPublishHookOrderedPerMutation(t *testing.T) {
	c := New()
	var gens [][2]uint64
	c.SetPublishHook(func(old, new Snap) {
		gens = append(gens, [2]uint64{old.Generation(), new.Generation()})
	})
	if _, err := c.RegisterSchema("a", schemaOf(t, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSchema("b", schemaOf(t, "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterMapping("m", "a", "b", constraintOf(t, "a", "b")); err != nil {
		t.Fatal(err)
	}
	// A rejected mutation publishes nothing.
	if _, err := c.RegisterMapping("bad", "a", "nowhere", nil); err == nil {
		t.Fatal("expected rejection")
	}
	want := [][2]uint64{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(gens, want) {
		t.Fatalf("hook observed %v, want %v", gens, want)
	}
}

// TestRouteGenStableAcrossUnrelatedMutations: the route generation of
// a→c is pinned by its own entries and survives unrelated churn.
func TestRouteGenStableAcrossUnrelatedMutations(t *testing.T) {
	c := deltaCatalog(t)
	r, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Path) != 2 || r.Path[0] != "m_ab" || r.Path[1] != "m_bc" {
		t.Fatalf("path = %v", r.Path)
	}
	gen := r.Gen
	for i := 0; i < 3; i++ {
		if _, err := c.RegisterSchema("noise", schemaOf(t, "noise")); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Gen != gen {
		t.Fatalf("routeGen moved %d→%d across unrelated mutations", gen, r2.Gen)
	}
	// Touching an edge on the route moves it to the mutation's gen.
	if _, err := c.RegisterMapping("m_bc", "b", "c", constraintOf(t, "b", "c")); err != nil {
		t.Fatal(err)
	}
	r3, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Gen != c.Generation() {
		t.Fatalf("routeGen = %d after touching the route at generation %d", r3.Gen, c.Generation())
	}
}

// computeDeltaFull is the all-sources sweep ComputeDelta prunes: every
// schema of either snapshot is searched. It is the reference the
// incremental diff must reproduce exactly.
func computeDeltaFull(old, new Snap) *Delta {
	var sources []string
	for _, e := range old.v.schemaList {
		sources = append(sources, e.Name)
	}
	for _, e := range new.v.schemaList {
		sources = append(sources, e.Name)
	}
	slices.Sort(sources)
	return deltaFrom(old.v, new.v, slices.Compact(sources))
}

// sameDelta reports how two deltas differ, or "" when they agree.
func sameDelta(got, want *Delta) string {
	switch {
	case got.FromGen != want.FromGen || got.ToGen != want.ToGen:
		return fmt.Sprintf("spans %d→%d, want %d→%d", got.FromGen, got.ToGen, want.FromGen, want.ToGen)
	case !reflect.DeepEqual(pairs(got.Changed), pairs(want.Changed)):
		return fmt.Sprintf("Changed = %v, want %v", got.Changed, want.Changed)
	case !reflect.DeepEqual(pairs(got.Lost), pairs(want.Lost)):
		return fmt.Sprintf("Lost = %v, want %v", got.Lost, want.Lost)
	case !reflect.DeepEqual(pairs(got.Gained), pairs(want.Gained)):
		return fmt.Sprintf("Gained = %v, want %v", got.Gained, want.Gained)
	}
	return ""
}

// TestComputeDeltaMatchesFullSweepProperty: over seeded random mutation
// sequences, the incremental ComputeDelta reports exactly the Changed,
// Lost and Gained lists of the all-sources sweep. The sequences mix
// invertible permutation mappings (derived-inverse edges) with
// containments, add schemas whose names sort between existing ones (so
// dense indices shift), re-register schemas, update mappings (body,
// invertibility and endpoints), and add edges that re-route existing
// pairs. Deltas are checked between adjacent snapshots, between a
// snapshot and a random earlier one, and across a Restore-built
// catalog that takes over the sequence midway.
func TestComputeDeltaMatchesFullSweepProperty(t *testing.T) {
	var nonEmpty, pruned, derived int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var schemas, maps []string
		history := []Snap{c.Snap()}
		check := func(step string, old, new Snap) {
			t.Helper()
			got, want := ComputeDelta(old, new), computeDeltaFull(old, new)
			if diff := sameDelta(got, want); diff != "" {
				t.Fatalf("seed %d, %s, gen %d→%d: %s", seed, step, old.Generation(), new.Generation(), diff)
			}
			if len(want.Changed)+len(want.Lost)+len(want.Gained) > 0 {
				nonEmpty++
			}
			if len(affectedSources(old.v, new.v)) < len(new.v.schemaList) {
				pruned++
			}
		}
		body := func(from, to string) algebra.ConstraintSet {
			if rng.Intn(2) == 0 {
				return parser.MustParseConstraints(fmt.Sprintf("proj[2,1](R%s) = R%s", from, to))
			}
			return parser.MustParseConstraints(fmt.Sprintf("R%s <= R%s", from, to))
		}
		endpoints := func() (string, string) {
			a := rng.Intn(len(schemas))
			b := (a + 1 + rng.Intn(len(schemas)-1)) % len(schemas)
			return schemas[a], schemas[b]
		}
		for step := 0; step < 60; step++ {
			if step == 30 {
				// A Restore-built catalog takes over: every
				// materialization is fresh, so the deltas across the
				// hand-over search every connected source.
				r := New()
				empty := r.Snap()
				ss, ms, gen := c.Snapshot()
				if err := r.Restore(ss, ms, gen); err != nil {
					t.Fatal(err)
				}
				check("restore", empty, r.Snap())
				check("restore hand-over", c.Snap(), r.Snap())
				c = r
				history = append(history, c.Snap())
				continue
			}
			var err error
			switch k := rng.Intn(20); {
			case len(schemas) < 2 || k < 4: // new schema, anywhere in name order
				name := fmt.Sprintf("s%03d", rng.Intn(1000))
				if !slices.Contains(schemas, name) {
					schemas = append(schemas, name)
				}
				_, err = c.RegisterSchema(name, schemaOf(t, name))
			case k < 7: // schema re-registration: re-materializes its edges
				name := schemas[rng.Intn(len(schemas))]
				_, err = c.RegisterSchema(name, schemaOf(t, name))
			case len(maps) == 0 || k < 14: // new edge, possibly a shortcut
				from, to := endpoints()
				name := fmt.Sprintf("m%d", len(maps))
				maps = append(maps, name)
				_, err = c.RegisterMapping(name, from, to, body(from, to))
			default: // mapping update, sometimes moving its endpoints
				name := maps[rng.Intn(len(maps))]
				e := c.Snap().v.maps[name]
				from, to := e.From, e.To
				if rng.Intn(4) == 0 {
					from, to = endpoints()
				}
				_, err = c.RegisterMapping(name, from, to, body(from, to))
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			cur := c.Snap()
			derived += cur.GraphStats().DerivedEdges
			check(fmt.Sprintf("step %d", step), history[len(history)-1], cur)
			check(fmt.Sprintf("step %d (skip)", step), history[rng.Intn(len(history))], cur)
			history = append(history, cur)
		}
	}
	// The property is vacuous unless the sequences produce real deltas,
	// let the pruning skip sources, and ride derived inverses.
	if nonEmpty == 0 || pruned == 0 || derived == 0 {
		t.Fatalf("weak sequences: %d non-empty deltas, %d pruned, %d derived edges", nonEmpty, pruned, derived)
	}
}
