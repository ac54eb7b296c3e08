package server

// Tests for generation-delta cache survival: the equivalence property
// test (delta-invalidated cache ≡ full recompute, byte for byte), the
// mixed-workload floors (hit rate, per-publish drops, latency
// percentiles, reachability), the -race migration hammer (registration
// storm against saturated reads, counter identity per publish) and the
// warm-skip behaviour.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mapcomp/internal/obs"
)

// clusterTask renders a self-contained registration body for cluster i:
// a three-schema chain c<i>a → c<i>b → c<i>c. Re-registering the body
// bumps the cluster's schema and mapping revisions, invalidating
// exactly the cluster's routes and nothing else. Odd clusters use
// invertible permutation equalities, so their reverse pairs resolve
// through derived-inverse edges; even clusters keep the historical
// containments (forward-only), so both graph shapes are always in play.
func clusterTask(i int) string {
	op := "<="
	lhs := "A%d"
	if i%2 == 1 {
		op = "="
		lhs = "proj[2,1](A%d)"
	}
	body := `
schema c%da { A%d/2; }
schema c%db { B%d/2; }
schema c%dc { C%d/2; }
map m%dab : c%da -> c%db { ` + lhs + ` ` + op + ` B%d; }
map m%dbc : c%db -> c%dc { B%d ` + op + ` C%d; }
`
	return fmt.Sprintf(body, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i)
}

// clusterPairs are the forward-connected ordered pairs inside one
// cluster — resolvable in every cluster regardless of invertibility.
func clusterPairs(i int) [][2]string {
	a, b, c := fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i), fmt.Sprintf("c%dc", i)
	return [][2]string{{a, b}, {b, c}, {a, c}}
}

// clusterAllPairs adds the reverse pairs for odd (invertible) clusters,
// where they resolve through derived-inverse edges.
func clusterAllPairs(i int) [][2]string {
	ps := clusterPairs(i)
	if i%2 == 1 {
		for _, p := range clusterPairs(i) {
			ps = append(ps, [2]string{p[1], p[0]})
		}
	}
	return ps
}

// normalizeResponse strips the two legitimately volatile response
// fields — the cached flag and the measured composition durations — and
// re-renders through the canonical encoder. Every other byte (path,
// route generation, key, constraints, fingerprint, eliminations,
// attempt counts) must be identical across a migrated entry and a
// fresh recompute.
func normalizeResponse(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	resp := decode[ComposeResponse](t, rec)
	resp.Cached = false
	if resp.Result != nil {
		resp.Result.Stats.DurationMS = 0
	}
	b, err := marshalWire(&resp)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return b
}

// TestDeltaEquivalenceProperty interleaves randomized cluster
// re-registrations with composes over two servers fed identical
// mutation streams: one with delta invalidation and one with the cache
// disabled — the full-recompute oracle. After every mutation the full
// pair sweep must agree byte-for-byte (modulo the cached flag and
// measured durations), so no route-changed pair is ever served a stale
// migrated entry (the oracle recomputes everything, every time). Each
// publish must also drop no more than the mutation can reach: nothing
// for a noise schema, at most the re-registered cluster's own pairs
// for a cluster.
func TestDeltaEquivalenceProperty(t *testing.T) {
	const clusters = 6
	delta := New(Config{})
	oracle := New(Config{CacheBytes: -1})
	servers := []*Server{delta, oracle}
	var publishes []migrationRecord
	delta.migrateHook = func(r migrationRecord) { publishes = append(publishes, r) }

	// apply registers body on both servers and returns the delta
	// server's migration record for the publish.
	apply := func(body string) migrationRecord {
		t.Helper()
		n := len(publishes)
		for _, s := range servers {
			if rec := do(t, s, "POST", "/v1/register", body); rec.Code != http.StatusOK {
				t.Fatalf("register: %d %s", rec.Code, rec.Body)
			}
		}
		if len(publishes) != n+1 {
			t.Fatalf("register published %d times, want 1", len(publishes)-n)
		}
		return publishes[n]
	}
	for i := 0; i < clusters; i++ {
		apply(clusterTask(i))
	}

	// The sweep covers the reverse pairs of the invertible clusters too:
	// reverse-direction entries ride derived-inverse edges and must obey
	// the same survival contract — byte-identical to a full recompute,
	// surviving unrelated mutations and dropping when their mapping
	// republishes (freeze re-derives the inverse, so both directions
	// invalidate).
	sweep := func(step string) {
		t.Helper()
		for i := 0; i < clusters; i++ {
			for _, p := range clusterAllPairs(i) {
				body := fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])
				var got [][]byte
				for _, s := range servers {
					rec := do(t, s, "POST", "/v1/compose", body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: compose %s: %d %s", step, body, rec.Code, rec.Body)
					}
					got = append(got, normalizeResponse(t, rec))
				}
				if !bytes.Equal(got[0], got[1]) {
					t.Fatalf("%s: %s: delta cache diverged from full recompute:\ndelta  %s\noracle %s", step, body, got[0], got[1])
				}
			}
		}
	}

	sweep("initial")
	rng := rand.New(rand.NewSource(61))
	for step := 0; step < 12; step++ {
		// Mutate: mostly cluster re-registrations (route-changing for
		// that cluster), sometimes an unrelated noise schema (route-
		// changing for nothing).
		if rng.Intn(3) == 0 {
			if r := apply(fmt.Sprintf("schema noise%d { N%d/1; }", step, step)); r.dropped != 0 {
				t.Fatalf("step %d: a noise schema dropped %d entries, want 0", step, r.dropped)
			}
		} else {
			i := rng.Intn(clusters)
			if r := apply(clusterTask(i)); r.dropped > len(clusterAllPairs(i)) {
				t.Fatalf("step %d: re-registering cluster %d dropped %d entries, more than its %d pairs",
					step, i, r.dropped, len(clusterAllPairs(i)))
			}
		}
		// A few random composes first, so the sweep also compares pairs
		// whose entries were touched at different recencies.
		for k := 0; k < 4; k++ {
			p := clusterPairs(rng.Intn(clusters))[rng.Intn(3)]
			body := fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])
			for _, s := range servers {
				if rec := do(t, s, "POST", "/v1/compose", body); rec.Code != http.StatusOK {
					t.Fatalf("compose %s: %d %s", body, rec.Code, rec.Body)
				}
			}
		}
		sweep(fmt.Sprintf("step %d", step))
	}

	// The whole point: the delta cache must have actually survived.
	if delta.Stats().EntriesMigrated == 0 {
		t.Fatal("no entries were ever migrated")
	}
}

// composeLatency merges the compose route's per-outcome request
// histograms into one distribution. The histograms are process-global,
// so a phase is isolated by diffing snapshots taken around it.
func composeLatency() *obs.HistSnapshot {
	out := &obs.HistSnapshot{}
	for _, h := range composeSeconds {
		out.Merge(h.Snapshot())
	}
	return out
}

// TestMixedWorkloadFloors replays the steady-state mixed workload — 150
// disjoint clusters, a warm sweep of every pair, then 30 rounds of 100
// uniform composes each followed by one cluster re-register — and
// holds three floors:
//
//   - survival: the steady-state hit rate is at least 0.9, and each
//     publish drops at most the re-registered cluster's own pairs (a
//     wipe-on-write cache scores ~0.11 and drops every entry);
//   - telemetry: the warm, mixed and hit phases each have present,
//     ordered compose latency percentiles (0 < p50 ≤ p99 ≤ p999);
//   - reachability: derived inverse edges make exactly 675 pairs
//     servable over 450 forward-reachable ones (1.5×).
func TestMixedWorkloadFloors(t *testing.T) {
	const (
		clusters       = 150
		rounds         = 30
		composesPerReg = 100
	)
	s := New(Config{})
	var publishes []migrationRecord
	s.migrateHook = func(r migrationRecord) { publishes = append(publishes, r) }
	post := func(path, body string) {
		t.Helper()
		if rec := do(t, s, "POST", path, body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
		}
	}
	compose := func(p [2]string) { post("/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])) }
	phase := func(name string, before *obs.HistSnapshot) *obs.HistSnapshot {
		t.Helper()
		now := composeLatency()
		d := now.Sub(before)
		p50, p99, p999 := d.Quantile(0.5), d.Quantile(0.99), d.Quantile(0.999)
		if d.Count == 0 || p50 <= 0 || p50 > p99 || p99 > p999 {
			t.Errorf("%s phase percentiles missing or unordered: count=%d p50=%v p99=%v p999=%v",
				name, d.Count, p50, p99, p999)
		}
		return now
	}

	mark := composeLatency()
	for i := 0; i < clusters; i++ {
		post("/v1/register", clusterTask(i))
	}
	for i := 0; i < clusters; i++ {
		for _, p := range clusterAllPairs(i) {
			compose(p)
		}
	}
	mark = phase("warm", mark)

	st := s.Stats()
	if st.ReachablePairs != 675 || st.ForwardReachablePairs != 450 {
		t.Errorf("reachable pairs = %d over %d forward, want 675 over 450",
			st.ReachablePairs, st.ForwardReachablePairs)
	}

	rng := rand.New(rand.NewSource(61))
	maxDropped := 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < composesPerReg; k++ {
			ps := clusterAllPairs(rng.Intn(clusters))
			compose(ps[rng.Intn(len(ps))])
		}
		i, n := rng.Intn(clusters), len(publishes)
		post("/v1/register", clusterTask(i))
		if len(publishes) != n+1 {
			t.Fatalf("round %d: %d publishes for one register, want 1", r, len(publishes)-n)
		}
		dropped := publishes[n].dropped
		if dropped > len(clusterAllPairs(i)) {
			t.Fatalf("round %d: re-registering cluster %d dropped %d entries, more than its %d pairs",
				r, i, dropped, len(clusterAllPairs(i)))
		}
		maxDropped = max(maxDropped, dropped)
	}
	phase("mixed", mark)
	hits := s.Stats().CacheHits - st.CacheHits
	rate := float64(hits) / float64(rounds*composesPerReg)
	t.Logf("steady-state hit rate %.3f (%d/%d), at most %d entries dropped per publish",
		rate, hits, rounds*composesPerReg, maxDropped)
	if rate < 0.9 {
		t.Errorf("steady-state hit rate %.3f is below the 0.9 floor", rate)
	}

	const hitIters = 200
	hot := clusterPairs(0)[0]
	compose(hot)
	mark = composeLatency()
	before := s.Stats().CacheHits
	for k := 0; k < hitIters; k++ {
		compose(hot)
	}
	phase("hit", mark)
	if got := s.Stats().CacheHits - before; got != hitIters {
		t.Errorf("hit phase served %d of %d from the cache", got, hitIters)
	}
}

// TestMigrationHammer runs a registration storm (both route-changing
// cluster re-registrations and unrelated noise schemas) against
// saturated concurrent composes under -race, asserting on every single
// publish the counter identity candidates = migrated + dropped — every
// pre-publish entry is classified exactly once, none lost, none seen
// twice — that no request ever observes a torn view (non-200, or a
// response for the wrong pair), and that the cache stays within its
// byte budget, which is small enough to evict during the storm.
func TestMigrationHammer(t *testing.T) {
	const (
		clusters = 4
		budget   = 8 << 10
	)
	s := New(Config{CacheBytes: budget})
	var mu sync.Mutex
	var records []migrationRecord
	s.migrateHook = func(r migrationRecord) {
		mu.Lock()
		records = append(records, r)
		mu.Unlock()
	}
	for i := 0; i < clusters; i++ {
		if rec := do(t, s, "POST", "/v1/register", clusterTask(i)); rec.Code != http.StatusOK {
			t.Fatalf("register: %d %s", rec.Code, rec.Body)
		}
	}

	const (
		readWorkers = 6
		regWorkers  = 2
		iters       = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := clusterPairs(rng.Intn(clusters))[rng.Intn(3)]
				rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1]))
				if rec.Code != http.StatusOK {
					t.Errorf("compose %v: %d %s", p, rec.Code, rec.Body)
					return
				}
				resp := decode[ComposeResponse](t, rec)
				if resp.From != p[0] || resp.To != p[1] {
					t.Errorf("torn response: asked %v, got %s→%s", p, resp.From, resp.To)
					return
				}
			}
		}(w)
	}
	for w := 0; w < regWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters/2; i++ {
				var body string
				if rng.Intn(2) == 0 {
					body = clusterTask(rng.Intn(clusters))
				} else {
					body = fmt.Sprintf("schema hnoise%d_%d { H%d_%d/1; }", w, i, w, i)
				}
				if rec := do(t, s, "POST", "/v1/register", body); rec.Code != http.StatusOK {
					t.Errorf("register: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	mu.Lock()
	defer mu.Unlock()
	if len(records) != clusters+regWorkers*(iters/2) {
		t.Fatalf("observed %d migrations, want one per publish (%d)", len(records), clusters+regWorkers*(iters/2))
	}
	var lastGen uint64
	for _, r := range records {
		if r.candidates != r.migrated+r.dropped {
			t.Fatalf("publish %d→%d: candidates %d != migrated %d + dropped %d",
				r.fromGen, r.toGen, r.candidates, r.migrated, r.dropped)
		}
		if r.fromGen != lastGen || r.toGen != lastGen+1 {
			t.Fatalf("publishes out of order: %d→%d after generation %d", r.fromGen, r.toGen, lastGen)
		}
		lastGen = r.toGen
	}
	if st := s.Stats(); st.CacheBytes > budget {
		t.Fatalf("cache bytes = %d, exceeds the %d budget", st.CacheBytes, budget)
	}
}

// TestWarmSkipsMigratedEntries: a warm-up after entries survived a
// migration recomputes nothing; after a route-changing mutation it
// recomputes exactly the invalidated pairs.
func TestWarmSkipsMigratedEntries(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s, "POST", "/v1/register", clusterTask(0)); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	for _, p := range clusterPairs(0) {
		if rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])); rec.Code != http.StatusOK {
			t.Fatalf("compose: %d %s", rec.Code, rec.Body)
		}
	}
	// Unrelated mutation: all three entries migrate in place.
	if rec := do(t, s, "POST", "/v1/register", "schema warmnoise { W/1; }"); rec.Code != http.StatusOK {
		t.Fatalf("register noise: %d %s", rec.Code, rec.Body)
	}
	before := s.Stats().Composes
	if n := s.Warm(context.Background()); n != 0 {
		t.Fatalf("Warm recomputed %d surviving pairs, want 0", n)
	}
	if got := s.Stats().Composes; got != before {
		t.Fatalf("Warm ran %d compositions for surviving entries", got-before)
	}
	// Route-changing mutation: the cluster's entries drop, Warm rebuilds
	// exactly them.
	if rec := do(t, s, "POST", "/v1/register", clusterTask(0)); rec.Code != http.StatusOK {
		t.Fatalf("re-register: %d %s", rec.Code, rec.Body)
	}
	if n := s.Warm(context.Background()); n != 3 {
		t.Fatalf("Warm rebuilt %d pairs, want the 3 invalidated", n)
	}
	if got := s.Stats().Composes; got != before+3 {
		t.Fatalf("composes = %d, want %d", got, before+3)
	}
}
