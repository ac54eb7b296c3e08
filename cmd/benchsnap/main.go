// Command benchsnap produces the machine-readable benchmark snapshot
// committed per PR (BENCH_*.json): the recorded perf trajectory the
// ROADMAP asks for. It measures three things against an in-process
// server (no TCP in the way):
//
//   - the cache hit path, ns per request (direct handler dispatch of a
//     cached compose),
//   - the mixed read/write workload: a catalog of many disjoint schema
//     clusters, 1 cluster re-registration per 100 composes (each
//     mutation touches <1% of the endpoint pairs), run twice — once
//     with generation-delta cache survival (the default) and once with
//     the wipe-on-write baseline (-delta=false) — reporting the
//     steady-state cache hit rate of each and their ratio,
//   - the snapshot-diff cost: mean ComputeDelta time per publish, µs,
//   - per-phase compose latency percentiles (p50/p99/p999, µs), read
//     from the server's own histograms via temporal snapshot diffs —
//     the same instruments GET /metrics serves, so the committed
//     numbers and the scraped ones can never disagree on method,
//   - the bidirectional-graph reachability multiplier: ordered schema
//     pairs servable over registered + derived-inverse edges versus
//     registered edges alone, from the server's own graph statistics.
//     Two of every three clusters use invertible permutation equalities
//     (their reverse pairs ride derived inverses), the third uses
//     containments (forward-only), and the mixed workload composes
//     reverse pairs alongside forward ones.
//
// Usage:
//
//	benchsnap [-out BENCH.json] [-clusters N] [-rounds N] [-check]
//
// With -check the exit status enforces the acceptance floors: the
// delta hit rate must be at least 5× the wipe baseline (PR 6), every
// phase's percentiles must be present and ordered
// (0 < p50 ≤ p99 ≤ p999) for the warm, mixed_delta, mixed_wipe and
// hit_path phases, and the reachability multiplier must be at least
// 1.5×. CI runs it on every push, so a regression in cache
// survival, in the telemetry or in inverse-edge derivation fails the
// build rather than silently eroding.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"mapcomp/internal/obs"
	"mapcomp/internal/server"
)

// snapshot is the committed JSON document.
type snapshot struct {
	PR    int    `json:"pr"`
	Go    string `json:"go"`
	Procs int    `json:"gomaxprocs"`

	HitPathNSPerOp int64 `json:"hit_path_ns_per_op"`

	Mixed struct {
		Clusters            int      `json:"clusters"`
		Pairs               int      `json:"pairs"`
		ComposesPerRegister int      `json:"composes_per_register"`
		Rounds              int      `json:"rounds"`
		MutationTouchesPct  float64  `json:"mutation_touches_pct"`
		Delta               mixedRun `json:"delta"`
		Wipe                mixedRun `json:"wipe"`
		HitRateRatio        float64  `json:"hit_rate_ratio"`
	} `json:"mixed_workload"`

	DeltaComputeUSMean float64 `json:"delta_compute_us_mean"`

	// Reachability reports the bidirectional graph's coverage, read from
	// the delta server's /v1/stats counters after the catalog is built.
	Reachability struct {
		RegisteredEdges       int     `json:"registered_edges"`
		DerivedInverseEdges   int     `json:"derived_inverse_edges"`
		InvertibleMappings    int     `json:"invertible_mappings"`
		ForwardReachablePairs int     `json:"forward_reachable_pairs"`
		ReachablePairs        int     `json:"reachable_pairs"`
		Multiplier            float64 `json:"multiplier"`
	} `json:"reachability"`

	// Phases carries per-phase compose latency percentiles, diffed from
	// the server's /metrics histograms around each phase (the compose
	// histograms are process-global, so isolation is temporal, not
	// per-server).
	Phases struct {
		Warm       phasePct `json:"warm"`
		MixedDelta phasePct `json:"mixed_delta"`
		MixedWipe  phasePct `json:"mixed_wipe"`
		HitPath    phasePct `json:"hit_path"`
	} `json:"phases"`
}

type mixedRun struct {
	Requests int64   `json:"requests"`
	Hits     int64   `json:"hits"`
	Composes int64   `json:"composes"`
	HitRate  float64 `json:"hit_rate"`
}

// phasePct is one phase's compose latency distribution in microseconds.
type phasePct struct {
	Count  int64   `json:"count"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
}

// phaseDiff extracts the percentiles of the observations made between
// two histogram snapshots.
func phaseDiff(before, after *obs.HistSnapshot) phasePct {
	d := after.Sub(before)
	return phasePct{
		Count:  int64(d.Count),
		P50US:  float64(d.Quantile(0.5).Nanoseconds()) / 1e3,
		P99US:  float64(d.Quantile(0.99).Nanoseconds()) / 1e3,
		P999US: float64(d.Quantile(0.999).Nanoseconds()) / 1e3,
	}
}

// ordered reports whether a phase's percentiles are present and
// monotone — the -check invariant for PR 7.
func (p phasePct) ordered() bool {
	return p.Count > 0 && p.P50US > 0 && p.P50US <= p.P99US && p.P99US <= p.P999US
}

// clusterTask builds one disjoint 3-schema cluster. Two of every three
// clusters use invertible permutation equalities, so their reverse
// pairs are servable over derived inverse edges; every third uses
// open-world containments and stays forward-only. The split fixes the
// catalog's reachability multiplier at (2·6+1·3)/(3·3) ≈ 1.67.
func clusterTask(i int) string {
	if i%3 == 0 {
		return fmt.Sprintf(`
schema c%da { A%d/2; }
schema c%db { B%d/2; }
schema c%dc { C%d/2; }
map m%dab : c%da -> c%db { A%d <= B%d; }
map m%dbc : c%db -> c%dc { B%d <= C%d; }
`, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i)
	}
	return fmt.Sprintf(`
schema c%da { A%d/2; }
schema c%db { B%d/2; }
schema c%dc { C%d/2; }
map m%dab : c%da -> c%db { proj[2,1](A%d) = B%d; }
map m%dbc : c%db -> c%dc { B%d = C%d; }
`, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i)
}

// clusterPairs is the forward pair set of a cluster; clusterAllPairs
// adds the reverse pairs where derived inverses make them servable, so
// the mixed workload exercises both cache-key directions.
func clusterPairs(i int) [][2]string {
	a, b, c := fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i), fmt.Sprintf("c%dc", i)
	return [][2]string{{a, b}, {b, c}, {a, c}}
}

func clusterAllPairs(i int) [][2]string {
	ps := clusterPairs(i)
	if i%3 == 0 {
		return ps
	}
	for _, p := range clusterPairs(i) {
		ps = append(ps, [2]string{p[1], p[0]})
	}
	return ps
}

// sink discards response bodies the way a kernel socket buffer would,
// recording only the status — httptest.ResponseRecorder's per-request
// buffers would dominate the hit-path measurement.
type sink struct {
	h    http.Header
	code int
}

func (w *sink) Header() http.Header  { return w.h }
func (w *sink) WriteHeader(code int) { w.code = code }
func (w *sink) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// post dispatches one request directly into the handler.
func post(s *server.Server, path string, body []byte) int {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", path, rd)
	req.Body = io.NopCloser(rd)
	w := &sink{h: make(http.Header)}
	s.ServeHTTP(w, req)
	return w.code
}

func must(code int, what string) {
	if code != http.StatusOK {
		fmt.Fprintf(os.Stderr, "benchsnap: %s: status %d\n", what, code)
		os.Exit(1)
	}
}

// buildServer registers the cluster catalog on a fresh server and warms
// every pair once.
func buildServer(clusters int, disableDelta bool) *server.Server {
	s := server.New(server.Config{CacheBytes: 64 << 20, DisableDelta: disableDelta})
	for i := 0; i < clusters; i++ {
		must(post(s, "/v1/register", []byte(clusterTask(i))), "register")
	}
	for i := 0; i < clusters; i++ {
		for _, p := range clusterAllPairs(i) {
			must(post(s, "/v1/compose", composeBody(p)), "warm compose")
		}
	}
	return s
}

func composeBody(p [2]string) []byte {
	return []byte(fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1]))
}

// runMixed drives the steady-state mixed workload: per round, composesPerReg
// uniform-random composes across every pair, then one cluster
// re-registration. Both invalidation modes consume the identical
// pseudo-random request stream (same seed), so the comparison is
// apples to apples.
func runMixed(s *server.Server, clusters, rounds, composesPerReg int, seed int64) mixedRun {
	rng := rand.New(rand.NewSource(seed))
	before := s.Stats()
	for r := 0; r < rounds; r++ {
		for i := 0; i < composesPerReg; i++ {
			ps := clusterAllPairs(rng.Intn(clusters))
			must(post(s, "/v1/compose", composeBody(ps[rng.Intn(len(ps))])), "compose")
		}
		must(post(s, "/v1/register", []byte(clusterTask(rng.Intn(clusters)))), "register")
	}
	after := s.Stats()
	out := mixedRun{
		Requests: int64(rounds * composesPerReg),
		Hits:     after.CacheHits - before.CacheHits,
		Composes: after.Composes - before.Composes,
	}
	out.HitRate = float64(out.Hits) / float64(out.Requests)
	return out
}

// measureHitPath times the end-to-end handler cost of one cached
// compose request.
func measureHitPath(s *server.Server, iters int) int64 {
	body := composeBody(clusterPairs(0)[0])
	must(post(s, "/v1/compose", body), "hit-path warm")
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/compose", rd)
	w := &sink{h: make(http.Header)}
	start := time.Now()
	for i := 0; i < iters; i++ {
		rd.Seek(0, io.SeekStart)
		req.Body = io.NopCloser(rd)
		w.code = 0
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "benchsnap: hit path status %d\n", w.code)
			os.Exit(1)
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output path for the benchmark snapshot")
	clusters := flag.Int("clusters", 150, "disjoint 3-schema clusters in the benchmark catalog")
	rounds := flag.Int("rounds", 30, "mixed-workload rounds (1 registration per round)")
	composesPerReg := flag.Int("composes-per-register", 100, "compose requests per registration")
	hitIters := flag.Int("hit-iters", 20000, "iterations for the hit-path timing")
	check := flag.Bool("check", false,
		"exit non-zero unless delta hit rate ≥ 5× the wipe baseline, every phase's percentiles are present and ordered, and the reachability multiplier is ≥ 1.5×")
	flag.Parse()

	var snap snapshot
	snap.PR = 10
	snap.Go = runtime.Version()
	snap.Procs = runtime.GOMAXPROCS(0)

	const seed = 61
	mark := server.ComposeLatencySnapshot()
	deltaSrv := buildServer(*clusters, false)
	next := server.ComposeLatencySnapshot()
	snap.Phases.Warm = phaseDiff(mark, next)
	mark = next

	snap.Mixed.Delta = runMixed(deltaSrv, *clusters, *rounds, *composesPerReg, seed)
	snap.Phases.MixedDelta = phaseDiff(mark, server.ComposeLatencySnapshot())

	wipeSrv := buildServer(*clusters, true)
	mark = server.ComposeLatencySnapshot()
	snap.Mixed.Wipe = runMixed(wipeSrv, *clusters, *rounds, *composesPerReg, seed)
	snap.Phases.MixedWipe = phaseDiff(mark, server.ComposeLatencySnapshot())

	totalPairs := 0
	for i := 0; i < *clusters; i++ {
		totalPairs += len(clusterAllPairs(i))
	}
	snap.Mixed.Clusters = *clusters
	snap.Mixed.Pairs = totalPairs
	snap.Mixed.ComposesPerRegister = *composesPerReg
	snap.Mixed.Rounds = *rounds
	// A mutation republishes one cluster and so touches at most 6 of the
	// workload's pairs (both directions of an invertible cluster).
	snap.Mixed.MutationTouchesPct = 100 * 6 / float64(totalPairs)
	if snap.Mixed.Wipe.HitRate > 0 {
		snap.Mixed.HitRateRatio = snap.Mixed.Delta.HitRate / snap.Mixed.Wipe.HitRate
	}

	st := deltaSrv.Stats()
	if st.Migrations > 0 {
		snap.DeltaComputeUSMean = float64(st.DeltaComputeUS) / float64(st.Migrations)
	}
	snap.Reachability.RegisteredEdges = st.RegisteredEdges
	snap.Reachability.DerivedInverseEdges = st.DerivedEdges
	snap.Reachability.InvertibleMappings = st.InvertibleMappings
	snap.Reachability.ForwardReachablePairs = st.ForwardReachablePairs
	snap.Reachability.ReachablePairs = st.ReachablePairs
	if st.ForwardReachablePairs > 0 {
		snap.Reachability.Multiplier = float64(st.ReachablePairs) / float64(st.ForwardReachablePairs)
	}
	mark = server.ComposeLatencySnapshot()
	snap.HitPathNSPerOp = measureHitPath(deltaSrv, *hitIters)
	snap.Phases.HitPath = phaseDiff(mark, server.ComposeLatencySnapshot())

	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)

	if *check {
		if snap.Mixed.HitRateRatio < 5 {
			fmt.Fprintf(os.Stderr, "benchsnap: FAIL: delta hit rate %.3f is only %.2f× the wipe baseline %.3f (floor 5×)\n",
				snap.Mixed.Delta.HitRate, snap.Mixed.HitRateRatio, snap.Mixed.Wipe.HitRate)
			os.Exit(1)
		}
		for name, p := range map[string]phasePct{
			"warm": snap.Phases.Warm, "mixed_delta": snap.Phases.MixedDelta,
			"mixed_wipe": snap.Phases.MixedWipe, "hit_path": snap.Phases.HitPath,
		} {
			if !p.ordered() {
				fmt.Fprintf(os.Stderr,
					"benchsnap: FAIL: phase %s percentiles missing or unordered: count=%d p50=%.1f p99=%.1f p999=%.1f (µs)\n",
					name, p.Count, p.P50US, p.P99US, p.P999US)
				os.Exit(1)
			}
		}
		if snap.Reachability.Multiplier < 1.5 {
			fmt.Fprintf(os.Stderr,
				"benchsnap: FAIL: reachability multiplier %.3f below the 1.5× floor (%d forward pairs, %d with derived inverses)\n",
				snap.Reachability.Multiplier, snap.Reachability.ForwardReachablePairs, snap.Reachability.ReachablePairs)
			os.Exit(1)
		}
	}
}
