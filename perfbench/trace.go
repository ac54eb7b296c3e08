package main

// Tracing and layer accounting. The traced repetitions record spans in
// memory around calls into each layer — the client transport (through
// net/http/httptrace), the listener's connections, the http.Handler the
// listener serves, the catalog.Logger the durable catalog writes
// through, and replays of public functions (parser.Parse, Snap.Route)
// on the same inputs — plus the per-hop ELIMINATE stages core already
// reports into an obs.Trace carried by the request context. Nothing in
// the program is edited. Phase-level figures come from the program's
// own counters and histograms, diffed around each phase.

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/obs"
	"mapcomp/internal/parser"
	"mapcomp/internal/persist"
	"mapcomp/internal/server"
)

// span is one timed interval of one operation. Parent names the span
// that caused it within the same operation ("" for the client's root).
// Spans known only by duration (replayed calls, core's hop stages) are
// laid out from their parent's start.
//
// A request's root span (rootSpan) is the client's whole wait. Its
// children are measured at the boundaries each hook sees: the client
// transport writing the request and reading the response
// (nethttp.client_send, nethttp.client_recv), the server connection
// reading the request and flushing the response (nethttp.server_read,
// nethttp.server_write), the kernel's loopback hand-offs between those
// (loopback.in, loopback.out) and the handler. The root's self time is
// what no hook saw: the unaccounted layer.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"` // root spans: hit, miss, batch or register
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// rootSpan names a request's root span.
const rootSpan = "client.request"

// layer is the package a span's self time belongs to; the root's self
// time belongs to no hooked layer.
func (s span) layer() string {
	if s.Name == rootSpan {
		return "unaccounted"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// blockingLayers are the layers on a single compose's blocking path.
var blockingLayers = []string{"nethttp", "loopback", "server", "catalog", "core", "unaccounted"}

// Root span kinds.
const (
	kindHit      = "hit"
	kindMiss     = "miss"
	kindBatch    = "batch"
	kindRegister = "register"
)

// recorder keeps the spans of one traced repetition in memory.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	// registering maps a cluster's first schema name to the op id of
	// the register of that cluster in flight, so the logger wrapper can
	// attribute its append.
	registering sync.Map
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// take returns the recorded spans and starts a fresh record. A handler
// still finishing when its client has its answer may add its span just
// after; an op without its root span is skipped by the analysis.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// tracedListener hands the http.Server connections that time their
// reads and writes; ConnContext puts each into its requests' contexts.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec}, nil
}

type connKey struct{}

func connContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connKey{}, c)
}

// tracedConn is one server connection. A keep-alive connection carries
// one request at a time from a closed-loop client, so the first read
// returning data after a handler ends is the next request arriving, and
// the first write after a handler ends is its response's flush.
type tracedConn struct {
	net.Conn
	rec        *recorder
	mu         sync.Mutex
	readAt     int64  // first data read since the last handler ended; 0 if none
	op         uint64 // the request whose response is pending
	handlerEnd int64  // set from handler end until the flush is recorded
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		t := c.rec.ns(time.Now())
		c.mu.Lock()
		if c.readAt == 0 {
			c.readAt = t
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	t := c.rec.ns(time.Now())
	c.mu.Lock()
	if c.handlerEnd != 0 {
		c.rec.add(span{Op: c.op, Name: "nethttp.server_write", Parent: rootSpan, Start: c.handlerEnd, End: t})
		c.handlerEnd = 0
	}
	c.mu.Unlock()
	return n, err
}

// tracedHandler wraps Server.ServeHTTP: it times the handler, records
// the server connection's read of the request, and hands the handler a
// context carrying an obs.Trace, which core.ComposeChain fills with
// per-hop stage timings on a miss.
type tracedHandler struct {
	next http.Handler
	s    *serveRep
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.s.rec
	op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	tc, _ := r.Context().Value(connKey{}).(*tracedConn)
	if tc != nil {
		// A flush the previous response did not need must not be
		// taken for one of this handler's writes.
		tc.mu.Lock()
		tc.handlerEnd = 0
		tc.mu.Unlock()
	}
	ctx, tr := obs.WithTrace(r.Context())
	t0 := time.Now()
	h.next.ServeHTTP(w, r.WithContext(ctx))
	t1 := time.Now()
	start := rec.ns(t0)
	spans := []span{{Op: op, Name: "server.handler", Parent: rootSpan, Start: start, End: rec.ns(t1)}}
	if tc != nil {
		tc.mu.Lock()
		if tc.readAt != 0 && tc.readAt <= start {
			spans = append(spans, span{Op: op, Name: "nethttp.server_read", Parent: rootSpan, Start: tc.readAt, End: start})
		}
		tc.readAt, tc.op, tc.handlerEnd = 0, op, rec.ns(t1)
		tc.mu.Unlock()
	}
	for _, st := range tr.Stages() {
		if strings.HasPrefix(st.Name, "chain/") {
			spans = append(spans, span{Op: op, Name: "core.hop", Parent: "server.handler", Start: start, End: start + st.Dur.Nanoseconds()})
			start += st.Dur.Nanoseconds()
		}
	}
	rec.add(spans...)
}

// clientHooks records when the client transport finished writing a
// request and when the response's first byte arrived. The transport
// calls them from its own goroutines.
type clientHooks struct {
	wrote, firstByte atomic.Int64
	trace            httptrace.ClientTrace
}

func newClientHooks(rec *recorder) *clientHooks {
	h := &clientHooks{}
	h.trace.WroteRequest = func(httptrace.WroteRequestInfo) { h.wrote.Store(rec.ns(time.Now())) }
	h.trace.GotFirstResponseByte = func() { h.firstByte.Store(rec.ns(time.Now())) }
	return h
}

// tracedLogger wraps the durable store as the catalog's logger and
// times every WAL append, fsync included.
type tracedLogger struct {
	next *persist.Store
	s    *serveRep
}

func (l *tracedLogger) AppendMutation(m *catalog.Mutation) error {
	rec := l.s.rec
	t0 := time.Now()
	err := l.next.AppendMutation(m)
	t1 := time.Now()
	var op uint64
	if m.Problem != nil && len(m.Problem.SchemaOrder) > 0 {
		if v, ok := rec.registering.Load(m.Problem.SchemaOrder[0]); ok {
			op = v.(uint64)
		}
	}
	rec.add(span{Op: op, Name: "persist.append", Parent: "server.handler", Start: rec.ns(t0), End: rec.ns(t1)})
	return err
}

// traceCompose records a single compose's root span and, on
// serve-churn, replays Snap.Route for the pair: every request adds a
// route sample, and a miss (the only outcome that routes) gets the
// replay as a child of its handler span.
func (c *client) traceCompose(op uint64, pr *pairRef, t0 time.Time, lat int64, miss bool) {
	if lat == failed {
		return
	}
	rec := c.s.rec
	kind := kindHit
	if miss {
		kind = kindMiss
	}
	start := rec.ns(t0)
	c.rootSpans(op, kind, start, lat)
	if !c.s.churn {
		return
	}
	r0 := time.Now()
	_, err := c.s.srv.Catalog().Snap().Route(pr.From, pr.To)
	d := time.Since(r0).Nanoseconds()
	c.extra["route"] = append(c.extra["route"], d)
	if miss && err == nil {
		c.spans = append(c.spans, span{Op: op, Name: "catalog.route", Parent: "server.handler", Start: start, End: start + d})
	}
}

// traceRequest records the root span of a batch or register.
func (c *client) traceRequest(op uint64, kind string, t0 time.Time, lat int64) {
	if lat == failed {
		return
	}
	c.rootSpans(op, kind, c.s.rec.ns(t0), lat)
}

// rootSpans records a request's root span and the client transport's
// parts of it, from the hooks the transport called during the request.
func (c *client) rootSpans(op uint64, kind string, start, lat int64) {
	end := start + lat
	c.spans = append(c.spans, span{Op: op, Name: rootSpan, Kind: kind, Start: start, End: end})
	if w := c.hooks.wrote.Load(); w >= start && w <= end {
		c.spans = append(c.spans, span{Op: op, Name: "nethttp.client_send", Parent: rootSpan, Start: start, End: w})
	}
	if f := c.hooks.firstByte.Load(); f >= start && f <= end {
		c.spans = append(c.spans, span{Op: op, Name: "nethttp.client_recv", Parent: rootSpan, Start: f, End: end})
	}
}

// traceParse replays parser.Parse and Validate on a register payload,
// recording it as the parse the handler performs.
func (c *client) traceParse(op uint64, body []byte) {
	t0 := time.Now()
	if p, err := parser.Parse(string(body)); err == nil {
		_ = parser.Validate(p) // the payload is known-good; only the time matters
	}
	d := time.Since(t0).Nanoseconds()
	c.extra["parse"] = append(c.extra["parse"], d)
	start := c.s.rec.ns(t0)
	c.spans = append(c.spans, span{Op: op, Name: "parser.parse", Parent: "server.handler", Start: start, End: start + d})
}

// selfTimes groups spans by operation and returns, per op, each span's
// self time: its duration minus its children's.
func selfTimes(spans []span) map[uint64][]selfSpan {
	byOp := map[uint64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := make(map[uint64][]selfSpan, len(byOp))
	for op, ss := range byOp {
		ss = append(ss, loopbackSpans(ss)...)
		child := map[string]int64{}
		for _, s := range ss {
			if s.Parent != "" {
				child[s.Parent] += s.dur()
			}
		}
		res := make([]selfSpan, len(ss))
		for i, s := range ss {
			res[i] = selfSpan{span: s, self: s.dur() - child[s.Name]}
		}
		out[op] = res
	}
	return out
}

// loopbackSpans derives a request's two loopback hand-offs from the
// boundaries its hooks saw: from the client transport's write to the
// server connection's read, and from the server's flush to the
// client's first response byte. A hand-off whose ends were not both
// seen stays in the root's self time.
func loopbackSpans(ss []span) []span {
	var send, read, write, recv *span
	for i := range ss {
		switch ss[i].Name {
		case "nethttp.client_send":
			send = &ss[i]
		case "nethttp.server_read":
			read = &ss[i]
		case "nethttp.server_write":
			write = &ss[i]
		case "nethttp.client_recv":
			recv = &ss[i]
		}
	}
	var out []span
	if send != nil && read != nil {
		out = append(out, span{Op: send.Op, Name: "loopback.in", Parent: rootSpan, Start: send.End, End: read.Start})
	}
	if write != nil && recv != nil {
		// The client may see the first byte before the server's write
		// call returns; the hand-off is then negative and the two
		// overlap by that much.
		out = append(out, span{Op: write.Op, Name: "loopback.out", Parent: rootSpan, Start: write.End, End: recv.Start})
	}
	return out
}

type selfSpan struct {
	span
	self int64
}

// analyzeSpans turns a serving repetition's spans into per-layer self
// times and the blocking-path samples of a hit and a miss.
func (s *serveRep) analyzeSpans() {
	r := s.res
	spans := s.rec.take()
	var ops int64
	for _, ss := range selfTimes(spans) {
		var root *selfSpan
		var handler, conn, loop int64
		layers := map[string]int64{}
		for i := range ss {
			x := &ss[i]
			switch x.Name {
			case rootSpan:
				root = x
			case "server.handler":
				handler = x.dur()
			case "nethttp.server_read", "nethttp.server_write":
				conn += x.dur()
			case "loopback.in", "loopback.out":
				loop += x.dur()
			case "persist.append":
				r.Samples["append"] = append(r.Samples["append"], x.dur())
			}
			layers[x.layer()] += x.self
		}
		if root == nil {
			continue // a server-side span without its client op (never expected)
		}
		ops++
		for l, v := range layers {
			r.Sums["self."+l+"_ns"] += float64(v)
		}
		switch root.Kind {
		case kindHit, kindMiss:
			r.Samples["handler_compose"] = append(r.Samples["handler_compose"], handler)
			r.Samples["nethttp_compose"] = append(r.Samples["nethttp_compose"], root.dur()-handler)
			r.Samples["conn_compose"] = append(r.Samples["conn_compose"], conn)
			r.Samples["loopback_compose"] = append(r.Samples["loopback_compose"], loop)
			// Per-op blocking-path split, index-aligned across keys.
			tot := "blk." + root.Kind + ".total"
			r.Samples[tot] = append(r.Samples[tot], root.dur())
			for _, l := range blockingLayers {
				key := "blk." + root.Kind + "." + l
				r.Samples[key] = append(r.Samples[key], layers[l])
			}
		case kindRegister:
			r.Samples["handler_register"] = append(r.Samples["handler_register"], handler)
		}
	}
	r.Sums["traced_ops"] += float64(ops)
	// Register internals the wrappers cannot split per request come
	// from the program's histograms over the phase: catalog.Apply's time
	// outside the WAL append and the cache migration is catalog work
	// (validation, copy-on-write rebuild, ComputeDelta).
	catalogNS := r.Sums["apply_ns"] - r.Sums["migrate_ns"]
	for _, a := range r.Samples["append"] {
		catalogNS -= float64(a)
	}
	if catalogNS > 0 {
		r.Sums["self.catalog_ns"] += catalogNS
		r.Sums["self.server_ns"] -= catalogNS
	}
	writeSpans(s.p, spans)
}

// writeSpans writes a traced repetition's spans as JSON lines under
// .bench_build/spans/.
func writeSpans(p *plan, spans []span) {
	dir := filepath.Join(filepath.Dir(p.Dir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return // spans are a diagnostic by-product; the figures are already taken
	}
	f, err := os.Create(filepath.Join(dir, p.Workload+"-rep"+strconv.Itoa(p.Rep)+".jsonl"))
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if enc.Encode(s) != nil {
			break
		}
	}
	_ = w.Flush()
	_ = f.Close()
}

// The program's own instruments the benchmark diffs around phases.
var (
	stratHists = map[string]*obs.Histogram{
		"unfold": obs.Hist("mapcomp_eliminate_strategy_seconds", `strategy="unfold"`),
		"left":   obs.Hist("mapcomp_eliminate_strategy_seconds", `strategy="left-compose"`),
		"right":  obs.Hist("mapcomp_eliminate_strategy_seconds", `strategy="right-compose"`),
	}
	verdictHists = []*obs.Histogram{
		obs.Hist("mapcomp_compose_verdict_seconds", `verdict="closed"`),
		obs.Hist("mapcomp_compose_verdict_seconds", `verdict="skolemized"`),
		obs.Hist("mapcomp_compose_verdict_seconds", `verdict="partial"`),
	}
	applyHist    = obs.Hist("mapcomp_catalog_mutation_seconds", `kind="apply"`)
	migrateHist  = obs.Hist("mapcomp_cache_migrate_seconds", "")
	blowupAborts = obs.Count("mapcomp_eliminate_blowup_aborts_total", "")
)

// marks is one reading of every counter and histogram a phase diffs.
type marks struct {
	stats           *server.StatsResponse
	strat           map[string]*obs.HistSnapshot
	verdict         *obs.HistSnapshot
	apply, migrate  *obs.HistSnapshot
	blowup          int64
	mallocs         uint64
	gcCPU, totalCPU float64
}

func takeMarks(srv *server.Server) *marks {
	m := &marks{strat: map[string]*obs.HistSnapshot{}, verdict: &obs.HistSnapshot{}}
	if srv != nil {
		st := srv.Stats()
		m.stats = &st
	}
	for k, h := range stratHists {
		m.strat[k] = h.Snapshot()
	}
	for _, h := range verdictHists {
		m.verdict.Merge(h.Snapshot())
	}
	m.apply, m.migrate = applyHist.Snapshot(), migrateHist.Snapshot()
	m.blowup = blowupAborts.Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	m.gcCPU, m.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return m
}

// phaseCounters records the phase-level counters between two marks.
func phaseCounters(r *repResult, before, after *marks, requests int64) {
	r.Sums["mallocs"] += float64(after.mallocs - before.mallocs)
	r.Sums["http_requests"] += float64(requests)
	r.Sums["gc_cpu"] += after.gcCPU - before.gcCPU
	r.Sums["total_cpu"] += after.totalCPU - before.totalCPU
	r.Sums["apply_ns"] += float64(after.apply.Sub(before.apply).Sum)
	r.Sums["migrate_ns"] += float64(after.migrate.Sub(before.migrate).Sum)
	if after.stats == nil {
		return
	}
	a, b := after.stats, before.stats
	r.Sums["srv.requests"] += float64(a.Requests - b.Requests)
	r.Sums["srv.hits"] += float64(a.CacheHits - b.CacheHits)
	r.Sums["srv.composes"] += float64(a.Composes - b.Composes)
	r.Sums["srv.coalesced"] += float64(a.Coalesced - b.Coalesced)
	r.Sums["srv.migrations"] += float64(a.Migrations - b.Migrations)
	r.Sums["srv.migrated"] += float64(a.EntriesMigrated - b.EntriesMigrated)
	r.Sums["srv.dropped"] += float64(a.EntriesDropped - b.EntriesDropped)
	r.Sums["srv.delta_us"] += float64(a.DeltaComputeUS - b.DeltaComputeUS)
}

// coreFigures records the ELIMINATE figures of the phase in which the
// workload's compositions run.
func coreFigures(r *repResult, before, after *marks) {
	for k := range stratHists {
		d := after.strat[k].Sub(before.strat[k])
		r.Sums["core."+k+"_attempts"] += float64(d.Count)
		if d.Count > 0 {
			r.Values["core."+k+"_us_p50"] = float64(d.Quantile(0.5).Nanoseconds()) / 1e3
		}
	}
	d := after.verdict.Sub(before.verdict)
	if d.Count > 0 {
		r.Values["core.chain_ms_p50"] = float64(d.Quantile(0.5).Nanoseconds()) / 1e6
		r.Values["core.chain_ms_p99"] = float64(d.Quantile(0.99).Nanoseconds()) / 1e6
	}
	r.Sums["core.blowup_aborts"] += float64(after.blowup - before.blowup)
}

// liveHeap reads the heap bytes the latest GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
