package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServerCompose measures end-to-end request throughput of the
// compose endpoint over real HTTP, at 1, 4 and GOMAXPROCS concurrent
// client workers. The hit variant repeats one pair against an unchanged
// catalog (every request after the first is a cache hit); the cold
// variant runs with the cache disabled, so every request pays a full
// chain composition. The req/s metric is what EXPERIMENTS.md records.
func BenchmarkServerCompose(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("hit/workers=%d", workers), func(b *testing.B) {
			benchCompose(b, Config{}, workers)
		})
		b.Run(fmt.Sprintf("cold/workers=%d", workers), func(b *testing.B) {
			benchCompose(b, Config{CacheSize: -1}, workers)
		})
	}
}

func benchWorkerCounts() []int {
	out := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		out = append(out, p)
	}
	return out
}

// benchWriter is a minimal ResponseWriter for the direct-handler
// benchmarks: it records the status and discards the body the way a
// kernel socket buffer would, without httptest.ResponseRecorder's
// per-request buffer churn (which at saturation costs more GC sweep
// time than the handler itself and masks server-side wins).
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header  { return w.h }
func (w *benchWriter) WriteHeader(code int) { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
func (w *benchWriter) reset() { w.code = 0 }

// saturate drives one pre-built request against the handler from every
// parallel worker, reusing the request, body reader and writer across
// iterations so the measured loop is the handler's own work.
func saturate(b *testing.B, s *Server, method, path string, body []byte) {
	b.Helper()
	b.RunParallel(func(pb *testing.PB) {
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(method, path, rd)
		w := &benchWriter{h: make(http.Header)}
		for pb.Next() {
			if body != nil {
				rd.Seek(0, io.SeekStart)
				req.Body = io.NopCloser(rd)
			}
			w.reset()
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
	})
}

// BenchmarkServerComposeSaturated drives the compose handler directly
// (no TCP client in the way) from GOMAXPROCS-scaled goroutines, all
// hitting the warm cache for one hot pair. At this saturation the
// handler's only real work is decoding the request, the lock-free shard
// probe and copying the entry's pre-encoded bytes to the writer — run
// with -cpu 1,4,8 to see how the hit path scales (EXPERIMENTS.md
// records the single-LRU + per-hit-marshal baseline against the sharded
// pre-encoded cache).
func BenchmarkServerComposeSaturated(b *testing.B) {
	s := New(Config{})
	req := httptest.NewRequest("POST", "/v1/register", bytes.NewReader([]byte(chainTask)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	body := []byte(`{"from":"original","to":"split"}`)
	// Prime the cache so the measured loop is pure hit path.
	warm := httptest.NewRequest("POST", "/v1/compose", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm compose: %d %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	saturate(b, s, "POST", "/v1/compose", body)
}

// BenchmarkServerCatalogSaturated saturates GET /v1/catalog the same
// way: the handler is a pure catalog read (snapshot + listing render),
// so it shows the copy-on-write read path end to end without the result
// cache or composition in the way.
func BenchmarkServerCatalogSaturated(b *testing.B) {
	s := New(Config{})
	req := httptest.NewRequest("POST", "/v1/register", bytes.NewReader([]byte(chainTask)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	saturate(b, s, "GET", "/v1/catalog", nil)
}

// BenchmarkServerComposeHit is the allocation-regression guard for the
// hit path: a single goroutine repeating one cached pair. It reports
// allocs/op and fails outright if a hit marshals anything — the cache
// stores pre-encoded bytes precisely so this number stays zero — or if
// per-hit allocations creep past a coarse bound (the steady state is
// the body read, the decoded request strings and the response headers;
// recompute the bound if the wire format grows).
func BenchmarkServerComposeHit(b *testing.B) {
	s := New(Config{})
	req := httptest.NewRequest("POST", "/v1/register", bytes.NewReader([]byte(chainTask)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	body := []byte(`{"from":"original","to":"split"}`)
	warm := httptest.NewRequest("POST", "/v1/compose", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm compose: %d %s", rec.Code, rec.Body)
	}

	rd := bytes.NewReader(body)
	hit := httptest.NewRequest("POST", "/v1/compose", rd)
	w := &benchWriter{h: make(http.Header)}
	encodesBefore := wireEncodes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, io.SeekStart)
		hit.Body = io.NopCloser(rd)
		w.reset()
		s.ServeHTTP(w, hit)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.StopTimer()
	if d := wireEncodes.Load() - encodesBefore; d != 0 {
		b.Fatalf("hit path marshaled %d times over %d requests, want 0", d, b.N)
	}
}

// TestComposeHitPathAllocBound is the alloc guard that runs in every
// plain `go test` pass (benchmarks only run in the CI smoke): a cache
// hit must not marshal anything and must stay under a tight
// allocations-per-request ceiling. A hit reads the body with one
// bounded io.ReadAll, decodes it with one json.Unmarshal and probes the
// cache with the decoded strings; the measured steady state is 16
// allocations (request plumbing, MaxBytesReader, the body buffer, the
// decoder and its two strings, headers). The bound adds 3 of headroom
// for harness noise and still catches a reintroduced per-hit marshal
// (~10 allocations) or a second decode (~6).
func TestComposeHitPathAllocBound(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	body := []byte(`{"from":"original","to":"split"}`)
	if rec := do(t, s, "POST", "/v1/compose", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("warm compose: %d %s", rec.Code, rec.Body)
	}

	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/compose", rd)
	w := &benchWriter{h: make(http.Header)}
	encodesBefore := wireEncodes.Load()
	var runs int64
	avg := testing.AllocsPerRun(200, func() {
		rd.Seek(0, io.SeekStart)
		req.Body = io.NopCloser(rd)
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		runs++
	})
	if d := wireEncodes.Load() - encodesBefore; d != 0 {
		t.Errorf("hit path marshaled %d times over %d requests, want 0", d, runs)
	}
	const maxAllocs = 19
	if avg > maxAllocs {
		t.Errorf("hit path allocates %.1f objects per request, bound is %d", avg, maxAllocs)
	}
}

func benchCompose(b *testing.B, cfg Config, workers int) {
	s := New(cfg)
	req := httptest.NewRequest("POST", "/v1/register", bytes.NewReader([]byte(chainTask)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	body := []byte(`{"from":"original","to":"split"}`)

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(b.N) {
					return
				}
				resp, err := client.Post(ts.URL+"/v1/compose", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}
