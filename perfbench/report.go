package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The layer-split check, on the blocking path of a serve-hot hit and a
// serve-churn miss: the time no hook saw may be at most
// unaccountedTolerance of the traced median request, and the layers'
// self times of that request must add up to the untraced end-to-end
// median within splitTolerance.
const (
	unaccountedTolerance = 0.05
	splitTolerance       = 0.25
)

// metricDef is one reported metric: its unit and, for per-layer
// metrics, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd lists the metrics a user of the system sees, reported on
// every workload. compose_* is one composition as its user waits for
// it: a single POST /v1/compose (serve-*) or one edit's composition
// (edit-fig3). secondary_* is the workload's other operation: a batch
// request (serve-hot), a durable register (serve-churn) or one whole
// 100-edit run (edit-fig3).
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"compose_p50_us", "us", ""},
	{"compose_p99_us", "us", ""},
	{"secondary_p50_us", "us", ""},
	{"secondary_p90_us", "us", ""},
	{"ops_per_s", "1/s", ""},
	{"frac_eliminated", "ratio", ""},
	{"peak_heap_mb", "MB", ""},
}

// perLayer lists the traced run's metrics with what each should move.
var perLayer = []metricDef{
	{"nethttp.overhead_us_p50", "us", "compose_p50_us on serve-hot"},
	{"nethttp.server_conn_us_p50", "us", "compose_p50_us on serve-hot"},
	{"loopback.handoff_us_p50", "us", "compose_p50_us on serve-hot"},
	{"server.handler_us_p50", "us", "compose_p50_us on serve-hot"},
	{"server.handler_us_p99", "us", "compose_p99_us on serve-hot"},
	{"server.allocs_per_req", "count", "compose_p50_us on serve-hot"},
	{"server.hit_ratio", "ratio", "compose_p99_us and ops_per_s on serve-churn"},
	{"server.compose_requests", "count", "base of server.hit_ratio (per repetition)"},
	{"server.composes", "count", "compose_p99_us and ops_per_s on serve-churn"},
	{"server.coalesced", "count", "compose_p99_us and ops_per_s on serve-churn"},
	{"server.migrated_per_publish", "count", "compose_p99_us on serve-churn"},
	{"server.dropped_per_publish", "count", "compose_p99_us on serve-churn"},
	{"server.register_handler_ms_p50", "ms", "secondary_p50_us on serve-churn"},
	{"catalog.delta_ms_mean", "ms", "secondary_p50_us on serve-churn"},
	{"catalog.route_us_p50", "us", "compose_p99_us on serve-churn"},
	{"persist.append_us_p50", "us", "secondary_p50_us on serve-churn"},
	{"persist.append_us_p99", "us", "secondary_p90_us on serve-churn"},
	{"parser.parse_us_p50", "us", "secondary_p50_us on serve-churn, setup_s on serve-*"},
	{"core.compose_chain_ms_p50", "ms", "compose_p99_us on serve-churn, setup_s on serve-hot"},
	{"core.compose_chain_ms_p99", "ms", "compose_p99_us on serve-churn, setup_s on serve-hot"},
	{"core.eliminate_unfold_us_p50", "us", "compose_p50_us and compose_p99_us on edit-fig3, compose_p99_us on serve-churn"},
	{"core.eliminate_left_us_p50", "us", "compose_p50_us and compose_p99_us on edit-fig3, compose_p99_us on serve-churn"},
	{"core.eliminate_right_us_p50", "us", "compose_p50_us and compose_p99_us on edit-fig3, compose_p99_us on serve-churn"},
	{"core.eliminate_unfold_attempts", "count", "compose_p50_us on edit-fig3"},
	{"core.eliminate_left_attempts", "count", "compose_p50_us on edit-fig3"},
	{"core.eliminate_right_attempts", "count", "compose_p50_us on edit-fig3"},
	{"core.blowup_aborts", "count", "compose_p99_us on edit-fig3"},
	{"runtime.gc_cpu_frac", "ratio", "compose_p99_us, secondary_p90_us on every workload"},
	{"self.nethttp_us_per_op", "us", "compose_p50_us on serve-hot"},
	{"self.loopback_us_per_op", "us", "compose_p50_us on serve-hot"},
	{"self.server_us_per_op", "us", "compose_p50_us on serve-hot, secondary_p50_us on serve-churn"},
	{"self.catalog_us_per_op", "us", "secondary_p50_us on serve-churn"},
	{"self.parser_us_per_op", "us", "secondary_p50_us on serve-churn"},
	{"self.persist_us_per_op", "us", "secondary_p50_us on serve-churn"},
	{"self.core_us_per_op", "us", "compose_p50_us on edit-fig3, compose_p99_us on serve-churn"},
	{"self.evolution_us_per_op", "us", "ops_per_s on edit-fig3"},
	{"self.unaccounted_us_per_op", "us", "layer-split check: time between hooks that did not fire"},
	{"split.unaccounted_frac", "ratio", "layer-split check: unaccounted share of the traced median request"},
	{"split.sum_ratio", "ratio", "layer-split check: blocking-path self times over the untraced median"},
	{"trace.overhead_us", "us", "tracing cost: traced minus untraced compose_p50_us"},
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return float64(xs[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pool gathers repetitions' figures, traced or untraced.
type pool struct{ reps []*repResult }

func (p pool) samples(k string) []int64 {
	var out []int64
	for _, r := range p.reps {
		out = append(out, r.Samples[k]...)
	}
	return out
}

func (p pool) sum(k string) float64 {
	var s float64
	for _, r := range p.reps {
		s += r.Sums[k]
	}
	return s
}

func (p pool) value(k string) float64 {
	var xs []float64
	for _, r := range p.reps {
		if v, ok := r.Values[k]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// fasterOfTwo pairs edit-fig3's two executions of each slice — the
// same seeds in the same order, so the same edits — and keeps, for
// every edit and every 100-edit run, the faster of its two timings.
// The work is deterministic (the pins check it), so the slower timing
// differs only by what the rest of the machine took from it.
func fasterOfTwo(reps []*repResult) (edits, runs []int64) {
	first := map[int]*repResult{}
	for _, r := range reps {
		f, seen := first[r.Slice]
		if !seen {
			first[r.Slice] = r
			continue
		}
		edits = append(edits, pairMin(f.Samples["compose"], r.Samples["compose"])...)
		runs = append(runs, pairMin(f.Samples["secondary"], r.Samples["secondary"])...)
	}
	return edits, runs
}

func pairMin(a, b []int64) []int64 {
	out := make([]int64, min(len(a), len(b)))
	for i := range out {
		out[i] = min(a[i], b[i])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func report(o options, p *plan, reps []*repResult) error {
	var plain, traced pool
	var setups []float64
	var attempted, failedOps int64
	var errs []string
	for _, r := range reps {
		attempted += r.Attempted
		failedOps += r.Failed
		errs = append(errs, r.Errors...)
		if r.Traced {
			traced.reps = append(traced.reps, r)
		} else {
			plain.reps = append(plain.reps, r)
			setups = append(setups, float64(r.SetupNS)/1e9)
		}
	}
	correct := failedOps == 0
	m := map[string]float64{}
	var note string
	if !o.trace {
		compose, secondary := plain.samples("compose"), plain.samples("secondary")
		if p.Workload == wlEdit {
			compose, secondary = fasterOfTwo(plain.reps)
		}
		note = fmt.Sprintf("# %d repetitions; samples: %d compose, %d secondary\n",
			len(plain.reps), len(compose), len(secondary))
		m["setup_s"] = median(setups)
		m["compose_p50_us"] = quantile(compose, 0.50) / 1e3
		m["compose_p99_us"] = quantile(compose, 0.99) / 1e3
		m["secondary_p50_us"] = quantile(secondary, 0.50) / 1e3
		m["secondary_p90_us"] = quantile(secondary, 0.90) / 1e3
		if p.Workload == wlEdit {
			var runNS int64
			for _, d := range secondary {
				runNS += d
			}
			m["ops_per_s"] = ratio(float64(len(compose)), float64(runNS)/1e9)
		} else {
			m["compose_p99_us"] = quantile(plain.samples("win_compose_p99"), 0.5) / 1e3
			m["ops_per_s"] = quantile(plain.samples("win_ops"), 0.5) / statWindow.Seconds()
		}
		m["frac_eliminated"] = ratio(plain.sum("elim"), plain.sum("att"))
		m["peak_heap_mb"] = plain.value("peak_heap_mb")
	} else {
		var ok bool
		ok, errs = layerMetrics(m, p, plain, traced, errs)
		correct = correct && ok
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%t: go=%s GOMAXPROCS=%d nproc=%d clients=%d repetitions=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), p.Clients, len(reps))
	switch o.workload {
	case wlHot:
		fmt.Printf("# catalog: %d clusters, %d routable pairs, %d in the working set\n", len(p.Clusters), len(p.Pairs), len(p.Working))
	case wlChurn:
		fmt.Printf("# catalog: %d clusters, %d routable pairs\n", len(p.Clusters), len(p.Pairs))
	default:
		fmt.Printf("# edit runs: %d pinned seeds, %d per repetition (schema size %d, %d edits each)\n", len(p.EditSeeds), editSeedsPer, editSchemaSize, editEdits)
	}
	fmt.Print(note)
	for i, e := range errs {
		if i == 10 {
			fmt.Printf("# FAIL: … and %d more\n", len(errs)-i)
			break
		}
		fmt.Println("# FAIL:", e)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v := m[d.name]
		out[d.name] = metric{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Printf("%-32s %14.4f %-6s -> %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Printf("%-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failedOps, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// layerMetrics fills the per-layer metrics of a traced run and runs
// the layer-split check. Counters come from the untraced repetitions,
// span-derived figures from the traced ones.
func layerMetrics(m map[string]float64, p *plan, plain, traced pool, errs []string) (bool, []string) {
	us := func(xs []int64, q float64) float64 { return quantile(xs, q) / 1e3 }
	reps := float64(len(plain.reps))
	m["nethttp.overhead_us_p50"] = us(traced.samples("nethttp_compose"), 0.5)
	m["nethttp.server_conn_us_p50"] = us(traced.samples("conn_compose"), 0.5)
	m["loopback.handoff_us_p50"] = us(traced.samples("loopback_compose"), 0.5)
	m["server.handler_us_p50"] = us(traced.samples("handler_compose"), 0.5)
	m["server.handler_us_p99"] = us(traced.samples("handler_compose"), 0.99)
	m["server.allocs_per_req"] = ratio(plain.sum("mallocs"), plain.sum("http_requests"))
	m["server.hit_ratio"] = ratio(plain.sum("srv.hits"), plain.sum("srv.requests"))
	m["server.compose_requests"] = ratio(plain.sum("srv.requests"), reps)
	m["server.composes"] = ratio(plain.sum("srv.composes"), reps)
	m["server.coalesced"] = ratio(plain.sum("srv.coalesced"), reps)
	m["server.migrated_per_publish"] = ratio(plain.sum("srv.migrated"), plain.sum("srv.migrations"))
	m["server.dropped_per_publish"] = ratio(plain.sum("srv.dropped"), plain.sum("srv.migrations"))
	m["server.register_handler_ms_p50"] = us(traced.samples("handler_register"), 0.5) / 1e3
	m["catalog.delta_ms_mean"] = ratio(plain.sum("srv.delta_us"), plain.sum("srv.migrations")) / 1e3
	m["catalog.route_us_p50"] = us(traced.samples("route"), 0.5)
	m["persist.append_us_p50"] = us(traced.samples("append"), 0.5)
	m["persist.append_us_p99"] = us(traced.samples("append"), 0.99)
	all := pool{append(append([]*repResult{}, plain.reps...), traced.reps...)}
	m["parser.parse_us_p50"] = us(all.samples("parse"), 0.5)
	m["core.compose_chain_ms_p50"] = plain.value("core.chain_ms_p50")
	m["core.compose_chain_ms_p99"] = plain.value("core.chain_ms_p99")
	for _, k := range []string{"unfold", "left", "right"} {
		m["core.eliminate_"+k+"_us_p50"] = plain.value("core." + k + "_us_p50")
		m["core.eliminate_"+k+"_attempts"] = ratio(plain.sum("core."+k+"_attempts"), reps)
	}
	m["core.blowup_aborts"] = ratio(plain.sum("core.blowup_aborts"), reps)
	m["runtime.gc_cpu_frac"] = ratio(plain.sum("gc_cpu"), plain.sum("total_cpu"))
	ops := traced.sum("traced_ops")
	for _, l := range []string{"nethttp", "loopback", "server", "catalog", "parser", "persist", "core", "evolution", "unaccounted"} {
		m["self."+l+"_us_per_op"] = ratio(traced.sum("self."+l+"_ns"), ops) / 1e3
	}
	m["trace.overhead_us"] = us(traced.samples("compose"), 0.5) - us(plain.samples("compose"), 0.5)

	// Layer-split check on the blocking path: each layer's mean self
	// time over the traced requests of the middle fifth (40th to 60th
	// percentile of traced latency) — a decomposition of the median
	// request that adds up exactly, unlike a sum of per-layer medians.
	// Every part is measured at the hooks that bound it, so the time no
	// hook saw is a part of its own, "unaccounted"; it must stay small,
	// and the parts must add up to the untraced median of the same kind
	// of request.
	kind, base := "hit", plain.samples("compose_hit")
	switch p.Workload {
	case wlChurn:
		kind, base = "miss", plain.samples("compose_miss")
	case wlEdit:
		m["split.sum_ratio"] = ratio(us(traced.samples("compose"), 0.5), us(plain.samples("compose"), 0.5))
		return true, errs
	}
	total := traced.samples("blk." + kind + ".total")
	band := append([]int64(nil), total...)
	lo, hi := int64(quantile(band, 0.4)), int64(quantile(band, 0.6))
	var sum, unaccounted float64
	var parts []string
	for _, l := range blockingLayers {
		self := traced.samples("blk." + kind + "." + l)
		var ns, n float64
		for i, t := range total {
			if t >= lo && t <= hi {
				ns += float64(self[i])
				n++
			}
		}
		v := ratio(ns, n) / 1e3
		sum += v
		if l == "unaccounted" {
			unaccounted = v
		}
		parts = append(parts, fmt.Sprintf("%s %.1f", l, v))
	}
	want := us(base, 0.5)
	m["split.sum_ratio"] = ratio(sum, want)
	m["split.unaccounted_frac"] = ratio(unaccounted, sum)
	fmt.Printf("# layer split, %s %s: %s = %.1f us vs untraced median %.1f us (unaccounted at most %.0f%%, sum within %.0f%%)\n",
		p.Workload, kind, strings.Join(parts, " + "), sum, want, unaccountedTolerance*100, splitTolerance*100)
	ok := true
	if sum == 0 || unaccounted/sum > unaccountedTolerance {
		ok = false
		errs = append(errs, fmt.Sprintf("layer split of a %s leaves %.1f of %.1f us unaccounted: over %.0f%%",
			kind, unaccounted, sum, unaccountedTolerance*100))
	}
	if want == 0 || math.Abs(sum/want-1) > splitTolerance {
		ok = false
		errs = append(errs, fmt.Sprintf("layer split of a %s sums to %.1f us, untraced median %.1f us: outside %.0f%%",
			kind, sum, want, splitTolerance*100))
	}
	return ok, errs
}
