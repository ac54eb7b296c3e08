package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/par"
	"mapcomp/internal/parser"
	"mapcomp/internal/persist"
	"mapcomp/internal/server"
)

// Workload mix constants. No trace of this service's clients exists to
// take them from; each is an assumption, picked for the reason given.
// README.md lists them with the same reasons.
const (
	// zipfTheta is the skew of serve-hot's key popularity: YCSB's
	// default request distribution (Cooper et al., "Benchmarking Cloud
	// Serving Systems with YCSB", SoCC 2010) uses Zipf constant 0.99.
	// Every key hits the cache, so the skew only changes CPU-cache
	// locality, not the work per request.
	zipfTheta = 0.99
	// batchShare and batchSize: one request in ten is a batch of 8
	// pairs, so batches take about a fifth of the clients' time — enough
	// for about twenty thousand batch samples per run while single
	// composes stay the bulk of the traffic.
	batchShare = 0.10
	batchSize  = 8
	// composesPerWrite: the writer client registers after every 100 of
	// its composes, 11–35 publishes a second with the host's speed. That
	// is a deploy storm, far above any rate a schema catalog is likely to
	// see; it is picked so a run holds over a hundred registers (for the
	// register percentiles) and the misses each publish causes reach the
	// compose tail.
	composesPerWrite = 100
	cacheBytes       = 64 << 20
	composeTimeout   = 30 * time.Second
	opHeader         = "X-Bench-Op" // traced runs only: links server spans to the client op

	// statWindow is the length of the windows whose median gives
	// compose_p99_us and ops_per_s on the serving workloads: a burst of
	// load from the rest of the machine then moves the windows it falls
	// in, not the run's figure.
	statWindow = 500 * time.Millisecond
)

// processStart is the child's earliest clock reading; the set-up time
// excludes what the child spends loading its plan before set-up starts.
var processStart = time.Now()

// failed marks a failed request's latency: it misses any limit.
const failed = int64(math.MaxInt64)

// serveRep is one serving repetition: the system under test, its
// clients and what they measured.
type serveRep struct {
	p       *plan
	res     *repResult
	base    string
	payload [][2][]byte // register payloads per cluster and variant
	churn   bool

	// seq is per-cluster register state: odd while a register of that
	// cluster is in flight; seq/2 mod 2 is the current body variant.
	seq      []atomic.Uint64
	regCount atomic.Uint64
	regOrder []int

	opSeq atomic.Uint64
	rec   *recorder // nil when untraced
	srv   *server.Server

	mu       sync.Mutex
	failures int64
	errs     []string
}

func (s *serveRep) fail(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, msg)
	}
}

func runServeRep(p *plan) (*repResult, error) {
	s := &serveRep{p: p, res: newRepResult(), churn: p.Workload == wlChurn}
	s.res.Traced = p.Traced
	s.seq = make([]atomic.Uint64, len(p.Clusters))
	if s.churn {
		s.payload = make([][2][]byte, len(p.Files))
		for i, f := range p.Files {
			for v := range f {
				b, err := os.ReadFile(f[v])
				if err != nil {
					return nil, err
				}
				s.payload[i][v] = b
			}
		}
		s.regOrder = rand.New(rand.NewSource(p.Seed ^ 0xc4)).Perm(len(p.Clusters))
	}
	if p.Traced {
		s.rec = newRecorder()
	}

	setupStart := time.Now()
	s.res.BenchOnlyNS = setupStart.Sub(processStart).Nanoseconds()
	stop, err := s.setup()
	if err != nil {
		return nil, err
	}
	defer stop()

	// Set-up ends with the warm-up: one compose of every pair the
	// workload will request, through the real listener.
	setupMarks := takeMarks(nil) // histograms only: Stats() would add its graph sweep to set-up
	warm := p.Working
	if s.churn {
		warm = make([]int, len(p.Pairs))
		for i := range warm {
			warm[i] = i
		}
	}
	clients := s.newClients()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c.id; i < len(warm); i += len(clients) {
				c.compose(warm[i], false)
			}
		}()
	}
	wg.Wait()
	for _, c := range clients {
		s.res.Attempted += c.warmOps
	}
	warmMarks := takeMarks(nil)
	if !s.churn {
		// serve-hot composes only during the warm-up: that is where its
		// core figures come from.
		coreFigures(s.res, setupMarks, warmMarks)
	}
	for _, c := range clients {
		c.reset()
	}
	if s.rec != nil {
		s.rec.take() // set-up WAL appends are not part of the timed phase
	}

	s.res.FirstOpNS = time.Now().UnixNano()
	s.timed(clients)
	served := map[int][2]int{}
	for _, c := range clients {
		c.merge(s.res)
		for k, v := range c.served {
			served[k] = v
		}
	}
	for _, v := range served {
		s.res.Sums["att"] += float64(v[0])
		s.res.Sums["elim"] += float64(v[1])
	}
	s.res.Failed += s.failures
	s.res.Errors = append(s.res.Errors, s.errs...)
	if p.Traced {
		s.analyzeSpans()
	}
	return s.res, nil
}

// setup builds the system as cmd/mapcompd does: catalog, optional
// durable store recovered and attached as the catalog logger, task
// files preloaded, server.New with mapcompd's defaults, an http.Server
// with mapcompd's timeouts on a 127.0.0.1 listener, and (durable) the
// snapshot-cadence loop. The returned stop shuts everything down and
// waits for it.
func (s *serveRep) setup() (func(), error) {
	p := s.p
	par.SetWorkers(0)
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	cat := catalog.New()
	var store *persist.Store
	if s.churn {
		dataDir := filepath.Join(p.Dir, fmt.Sprintf("data-%d", p.Rep))
		var err error
		store, err = persist.Open(dataDir, persist.Options{SnapshotEvery: persist.DefaultSnapshotEvery})
		if err != nil {
			return nil, err
		}
		if err := store.Recover(cat); err != nil {
			return nil, err
		}
		if s.rec != nil {
			cat.SetLogger(&tracedLogger{next: store, s: s})
		} else {
			cat.SetLogger(store)
		}
	}
	for _, f := range p.Files {
		src, err := os.ReadFile(f[0])
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		prob, err := parser.Parse(string(src))
		if err == nil {
			err = parser.Validate(prob)
		}
		s.res.Samples["parse"] = append(s.res.Samples["parse"], time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f[0], err)
		}
		if _, err := cat.Apply(prob); err != nil {
			return nil, fmt.Errorf("%s: %w", f[0], err)
		}
	}
	s.srv = server.New(server.Config{
		Catalog: cat, CacheBytes: cacheBytes, Persist: store,
		ComposeTimeout: composeTimeout, Logger: logger,
	})
	var h http.Handler = s.srv
	if s.rec != nil {
		h = &tracedHandler{next: s.srv, s: s}
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	if s.rec != nil {
		ln = &tracedListener{Listener: ln, rec: s.rec}
		httpSrv.ConnContext = connContext
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	var snapWG sync.WaitGroup
	if store != nil {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-store.SnapshotNeeded():
					if err := store.Snapshot(cat); err != nil {
						logger.Error("snapshot failed", "err", err)
					}
				}
			}
		}()
	}
	stop := func() {
		cancel()
		snapWG.Wait()
		shutCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
		}
		if store != nil {
			if err := store.Close(); err != nil {
				logger.Error("closing WAL", "err", err)
			}
		}
	}
	return stop, nil
}

// timed runs the closed loop for the repetition's window and records
// the phase-level figures around it.
func (s *serveRep) timed(clients []*client) {
	before := takeMarks(s.srv)
	heap := startHeapSampler()
	start := time.Now()
	window := time.Duration(s.p.WindowSec * float64(time.Second))
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline)
		}()
	}
	wg.Wait()
	peak := heap.stop()
	after := takeMarks(s.srv)

	var ops, reqs int64
	for _, c := range clients {
		ops += c.ops
		reqs += c.requests
	}
	r := s.res
	r.Attempted += ops
	r.Values["peak_heap_mb"] = float64(peak) / (1 << 20)
	// Per statWindow: operations completed, and the p99 of the single
	// composes completed. Only windows wholly inside the phase count.
	for k := range int(window / statWindow) {
		var n int64
		var lat []int64
		for _, c := range clients {
			if k < len(c.winOps) {
				n += c.winOps[k]
				lat = append(lat, c.winCompose[k]...)
			}
		}
		r.Samples["win_ops"] = append(r.Samples["win_ops"], n)
		if len(lat) > 0 {
			r.Samples["win_compose_p99"] = append(r.Samples["win_compose_p99"], int64(quantile(lat, 0.99)))
		}
	}
	phaseCounters(r, before, after, reqs)
	if s.churn {
		coreFigures(r, before, after)
	}
}

// newClients builds the closed-loop clients, each with its own
// keep-alive connection and its own seeded request stream; both
// repetitions of a slice send the same streams.
func (s *serveRep) newClients() []*client {
	n := s.p.Clients
	tr := &http.Transport{
		MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	out := make([]*client, n)
	for i := range out {
		rng := rand.New(rand.NewSource(s.p.Seed*7919 + int64(s.p.Slice)*104729 + int64(i)))
		c := &client{id: i, s: s, hc: &http.Client{Transport: tr}, rng: rng,
			known: map[int]knownBody{}, extra: map[string][]int64{}, served: map[int][2]int{}}
		if s.rec != nil {
			c.hooks = newClientHooks(s.rec)
		}
		if len(s.p.Working) > 0 {
			c.zipf = newZipf(rng, len(s.p.Working), zipfTheta)
		}
		out[i] = c
	}
	return out
}

// knownBody is a compose response body already checked against the
// oracle; identical bytes need no second decode. seq is the cluster's
// register state when it was checked (serve-churn), so a body that
// outlives a republish is checked again.
type knownBody struct {
	body []byte
	seq  uint64
}

// client is one closed-loop client.
type client struct {
	id    int
	s     *serveRep
	hc    *http.Client
	rng   *rand.Rand
	zipf  *zipf
	known map[int]knownBody
	buf   bytes.Buffer
	req   []byte

	ops, requests int64
	warmOps       int64
	composeLat    []int64 // single compose latencies, ns
	composeHit    []int64
	composeMiss   []int64
	secondary     []int64        // batch (serve-hot) or register (serve-churn) latencies
	served        map[int][2]int // pair*2+variant → attempted, eliminated of a verified result
	spans         []span
	hooks         *clientHooks       // traced runs only
	extra         map[string][]int64 // traced: route and parse replay times
	composes      int

	start      time.Time // start of the timed phase
	winOps     []int64   // operations completed per statWindow
	winCompose [][]int64 // single compose latencies per statWindow, ns
}

// window returns the index of the statWindow that t falls in, growing
// the per-window records to hold it.
func (c *client) window(t time.Time) int {
	k := int(t.Sub(c.start) / statWindow)
	for len(c.winOps) <= k {
		c.winOps = append(c.winOps, 0)
		c.winCompose = append(c.winCompose, nil)
	}
	return k
}

func (c *client) reset() {
	c.ops, c.requests = 0, 0
	c.composeLat, c.composeHit, c.composeMiss, c.secondary = nil, nil, nil, nil
	c.winOps, c.winCompose = nil, nil
	c.served = map[int][2]int{}
	c.spans = nil
	c.extra = map[string][]int64{}
}

func (c *client) merge(r *repResult) {
	r.Samples["compose"] = append(r.Samples["compose"], c.composeLat...)
	r.Samples["compose_hit"] = append(r.Samples["compose_hit"], c.composeHit...)
	r.Samples["compose_miss"] = append(r.Samples["compose_miss"], c.composeMiss...)
	r.Samples["secondary"] = append(r.Samples["secondary"], c.secondary...)
	for k, v := range c.extra {
		r.Samples[k] = append(r.Samples[k], v...)
	}
	if c.s.rec != nil {
		c.s.rec.add(c.spans...)
	}
}

func (c *client) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		switch {
		case c.s.churn && c.id == 0 && c.composes >= composesPerWrite:
			// Client 0 is the one writer: publishes never queue behind
			// each other on the catalog lock, as with one deploy
			// pipeline pushing schema changes.
			c.composes = 0
			c.register()
		case c.s.churn:
			c.composes++
			c.compose(c.rng.Intn(len(c.s.p.Pairs)), true)
		case c.rng.Float64() < batchShare:
			c.batch()
		default:
			c.compose(c.s.p.Working[c.zipf.next()], true)
		}
		c.ops++
		c.winOps[c.window(time.Now())]++
	}
}

// post sends one request and reads the whole response into c.buf.
func (c *client) post(path string, body []byte, op uint64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if c.s.rec != nil {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
		c.hooks.wrote.Store(0)
		c.hooks.firstByte.Store(0)
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &c.hooks.trace))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	c.requests++
	return resp.StatusCode, err
}

func (c *client) composeBody(pr *pairRef) []byte {
	c.req = append(c.req[:0], `{"from":"`...)
	c.req = append(c.req, pr.From...)
	c.req = append(c.req, `","to":"`...)
	c.req = append(c.req, pr.To...)
	c.req = append(c.req, `"}`...)
	return c.req
}

// compose sends one single compose request and checks the answer;
// timed requests record their latency.
func (c *client) compose(pi int, timed bool) {
	pr := &c.s.p.Pairs[pi]
	seq := &c.s.seq[pr.Cluster]
	s1 := seq.Load()
	op := c.s.opSeq.Add(1)
	t0 := time.Now()
	code, err := c.post("/v1/compose", c.composeBody(pr), op)
	end := time.Now()
	lat := end.Sub(t0).Nanoseconds()
	s2 := seq.Load()
	if !timed {
		c.warmOps++
	}
	miss, ok := false, false
	if err != nil || code != http.StatusOK {
		c.s.fail(fmt.Sprintf("compose %s→%s: status %d err %v: %.200s", pr.From, pr.To, code, err, c.buf.String()))
	} else {
		miss, ok = c.check(pi, bytes.TrimSuffix(c.buf.Bytes(), []byte("\n")), s1, s2)
	}
	if !timed {
		return
	}
	if !ok {
		lat = failed
	}
	c.composeLat = append(c.composeLat, lat)
	k := c.window(end)
	c.winCompose[k] = append(c.winCompose[k], lat)
	if miss {
		c.composeMiss = append(c.composeMiss, lat)
	} else {
		c.composeHit = append(c.composeHit, lat)
	}
	if c.s.rec != nil {
		c.traceCompose(op, pr, t0, lat, miss)
	}
}

// composeDoc is the part of a compose response the check reads.
type composeDoc struct {
	Path   []string `json:"path"`
	Cached bool     `json:"cached"`
	Result *struct {
		Fingerprint string `json:"fingerprint"`
		Stats       struct {
			Attempted  int `json:"attempted"`
			Eliminated int `json:"eliminated"`
		} `json:"stats"`
	} `json:"result"`
}

// check verifies one compose response document against the oracle and
// reports whether the server computed it (a cache miss). s1 and s2 are
// the pair's cluster register state before sending and after the
// answer: when a register of that cluster overlapped the request,
// either body variant's result is correct.
func (c *client) check(pi int, body []byte, s1, s2 uint64) (miss, ok bool) {
	pr := &c.s.p.Pairs[pi]
	if k, found := c.known[pi]; found && k.seq == s1 && s1 == s2 && bytes.Equal(k.body, body) {
		return false, true
	}
	var d composeDoc
	if err := json.Unmarshal(body, &d); err != nil || d.Result == nil {
		c.s.fail(fmt.Sprintf("compose %s→%s: undecodable response %.200s", pr.From, pr.To, body))
		return false, false
	}
	path := strings.Join(d.Path, ",")
	stable := s1 == s2 && s1%2 == 0
	match := -1
	for v := 0; v < 2; v++ {
		if pr.FP[v] == "" || (stable && v != int(s1/2%2)) {
			continue
		}
		if path == pr.Path[v] && d.Result.Fingerprint == pr.FP[v] {
			match = v
		}
	}
	if match < 0 {
		c.s.fail(fmt.Sprintf("compose %s→%s: got path %s fingerprint %s, oracle %v %v (register state %d→%d)",
			pr.From, pr.To, path, d.Result.Fingerprint, pr.Path, pr.FP, s1, s2))
		return !d.Cached, false
	}
	c.served[2*pi+match] = [2]int{d.Result.Stats.Attempted, d.Result.Stats.Eliminated}
	if d.Cached && stable {
		c.known[pi] = knownBody{body: bytes.Clone(body), seq: s1}
	}
	return !d.Cached, true
}

// batch sends one serve-hot batch of Zipf-drawn pairs and checks every
// item.
func (c *client) batch() {
	pis := make([]int, batchSize)
	c.req = append(c.req[:0], `{"requests":[`...)
	for i := range pis {
		pis[i] = c.s.p.Working[c.zipf.next()]
		pr := &c.s.p.Pairs[pis[i]]
		if i > 0 {
			c.req = append(c.req, ',')
		}
		c.req = append(c.req, `{"from":"`...)
		c.req = append(c.req, pr.From...)
		c.req = append(c.req, `","to":"`...)
		c.req = append(c.req, pr.To...)
		c.req = append(c.req, `"}`...)
	}
	c.req = append(c.req, "]}"...)
	op := c.s.opSeq.Add(1)
	t0 := time.Now()
	code, err := c.post("/v1/compose/batch", c.req, op)
	lat := time.Since(t0).Nanoseconds()
	ok := err == nil && code == http.StatusOK
	if !ok {
		c.s.fail(fmt.Sprintf("batch: status %d err %v: %.200s", code, err, c.buf.String()))
	} else {
		var d struct {
			Results []struct {
				Response json.RawMessage `json:"response"`
				Status   int             `json:"status"`
			} `json:"results"`
			Canceled bool `json:"canceled"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &d); err != nil || d.Canceled || len(d.Results) != len(pis) {
			c.s.fail(fmt.Sprintf("batch: bad envelope (%v) %.200s", err, c.buf.String()))
			ok = false
		} else {
			for i, it := range d.Results {
				if _, itemOK := c.check(pis[i], it.Response, 0, 0); !itemOK {
					ok = false
				}
			}
		}
	}
	if !ok {
		lat = failed
	}
	c.secondary = append(c.secondary, lat)
	if c.s.rec != nil {
		c.traceRequest(op, kindBatch, t0, lat)
	}
}

// register republishes one cluster with its other body variant over
// POST /v1/register (serve-churn).
func (c *client) register() {
	s := c.s
	ci := s.regOrder[int(s.regCount.Add(1)-1)%len(s.regOrder)]
	seq := &s.seq[ci]
	next := int((seq.Add(1)/2 + 1) % 2) // odd now: in flight
	body := s.payload[ci][next]
	op := s.opSeq.Add(1)
	if s.rec != nil {
		c.traceParse(op, body)
		s.rec.registering.Store(s.p.Clusters[ci][0], op)
	}
	t0 := time.Now()
	code, err := c.post("/v1/register", body, op)
	lat := time.Since(t0).Nanoseconds()
	seq.Add(1)
	if err != nil || code != http.StatusOK {
		s.fail(fmt.Sprintf("register cluster %d: status %d err %v: %.200s", ci, code, err, c.buf.String()))
		lat = failed
	}
	c.secondary = append(c.secondary, lat)
	if s.rec != nil {
		c.traceRequest(op, kindRegister, t0, lat)
	}
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. math/rand's Zipf needs an exponent above 1; YCSB's
// 0.99 is not, so this draws from the cumulative weights instead.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	var sum float64
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()*z.cdf[len(z.cdf)-1]), len(z.cdf)-1)
}

// heapSampler tracks the live Go heap during the timed phase: the
// bytes the latest GC cycle marked live, sampled every 5 ms. The peak
// it reports is the 95th percentile of the samples, which does not hang
// on the single GC cycle that happened to land mid-publish.
type heapSampler struct {
	done chan struct{}
	out  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), out: make(chan uint64, 1)}
	go func() {
		var samples []int64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			samples = append(samples, int64(liveHeap()))
			select {
			case <-h.done:
				h.out <- uint64(quantile(samples, 0.95))
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.out
}
