package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// chainTask is the quickstart movie scenario split into two hops, so
// compose original→split resolves a multi-hop chain through the graph.
const chainTask = `
schema original  { Movies/6; }
schema fivestar  { FiveStarMovies/3; }
schema split     { Names/2; Years/2; }

map m12 : original -> fivestar {
  proj[1,2,3](sel[#4='5'](Movies)) <= FiveStarMovies;
}
map m23 : fivestar -> split {
  proj[1,2,3](FiveStarMovies) <= proj[1,2,4](sel[#1=#3](Names * Years));
}
`

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{})
	rec := do(t, s, "POST", "/v1/register", chainTask)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	return s
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body, err)
	}
	return v
}

func TestRegisterEndpoint(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, "POST", "/v1/register", chainTask)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decode[RegisterResponse](t, rec)
	if resp.Generation != 1 {
		t.Fatalf("generation = %d, want 1", resp.Generation)
	}
	if got := strings.Join(resp.Schemas, ","); got != "original,fivestar,split" {
		t.Fatalf("schemas = %s", got)
	}
	if got := strings.Join(resp.Mappings, ","); got != "m12,m23" {
		t.Fatalf("mappings = %s", got)
	}

	// Error paths: syntax error → 400; a batch that breaks registered
	// mappings → 409; wrong method → 405.
	if rec := do(t, s, "POST", "/v1/register", "schema x {"); rec.Code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/register", "schema fivestar { FiveStarMovies/2; }"); rec.Code != http.StatusConflict {
		t.Fatalf("breaking update: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "GET", "/v1/register", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: status %d", rec.Code)
	}
}

func TestComposeEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decode[ComposeResponse](t, rec)
	if got := strings.Join(resp.Path, ","); got != "m12,m23" {
		t.Fatalf("path = %s, want m12,m23", got)
	}
	if resp.Cached {
		t.Fatal("first request reported cached")
	}
	if resp.Key == "" || resp.Generation != 1 {
		t.Fatalf("key=%q generation=%d", resp.Key, resp.Generation)
	}
	if _, ok := resp.Result.Eliminated["FiveStarMovies"]; !ok {
		t.Fatalf("intermediate symbol survived: %+v", resp.Result)
	}
	if len(resp.Result.Constraints) == 0 || resp.Result.Fingerprint == "" {
		t.Fatalf("empty result: %+v", resp.Result)
	}

	// The wire decode contract is encoding/json's: every spelling of the
	// original→split request below decodes to the same pair, so each is
	// a cache hit on the entry the first request stored.
	for _, body := range []string{
		`{"to":"split","from":"original"}`,                                 // key order is free
		`{"FROM":"original","To":"split"}`,                                 // keys match case-insensitively
		`{"from":"\u006friginal","to":"split"}`,                            // escapes are decoded
		`{"from":"split","from":"original","to":"split"}`,                  // the last duplicate wins
		`{"from":"original","to":"split","x":{"y":[1,{"z":null}],"w":""}}`, // unknown fields are ignored
	} {
		rec := do(t, s, "POST", "/v1/compose", body)
		if rec.Code != http.StatusOK {
			t.Errorf("compose %s: status %d, want 200 (%s)", body, rec.Code, rec.Body)
			continue
		}
		if r := decode[ComposeResponse](t, rec); r.From != "original" || r.To != "split" || !r.Cached {
			t.Errorf("compose %s: from=%q to=%q cached=%t, want a cached original->split hit", body, r.From, r.To, r.Cached)
		}
	}

	// Error paths.
	for _, tc := range []struct {
		body string
		code int
		msg  string // substring of the error text, when pinned
	}{
		{`{"from":"original","to":"nowhere"}`, http.StatusNotFound, ""},
		{`{"from":"split","to":"original"}`, http.StatusNotFound, ""}, // no reverse path
		{`{"from":"original","to":"original"}`, http.StatusBadRequest, ""},
		{`{"from":"original"}`, http.StatusBadRequest, "needs from and to"},
		{`null`, http.StatusBadRequest, "needs from and to"},
		{`not json`, http.StatusBadRequest, "bad compose request"},
		{`{"from":"original","to":"split","timeout_ms":1.5}`, http.StatusBadRequest, "bad compose request"},
		{`{"from":"original","to":"split"} trailing`, http.StatusBadRequest, "bad compose request"},
		// A compose frame of the retired binary wire (version 0x01, kind
		// 0x01, uvarint-framed strings, timeout, trace) is just a body
		// that is not JSON: a 400 with an error document, never a 415.
		{"\x01\x01\x08original\x05split\x00\x00", http.StatusBadRequest, "bad compose request"},
	} {
		rec := do(t, s, "POST", "/v1/compose", tc.body)
		if rec.Code != tc.code {
			t.Errorf("compose %s: status %d, want %d (%s)", tc.body, rec.Code, tc.code, rec.Body)
		}
		if e := decode[ErrorJSON](t, rec); e.Error == "" || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("compose %s: error %q, want one containing %q", tc.body, e.Error, tc.msg)
		}
	}
}

// TestCacheHitSkipsEliminate is the acceptance check: a repeated request
// on an unchanged catalog is served from the cache without re-running
// ELIMINATE, verified by the step-count instrumentation. An unrelated
// catalog mutation migrates the entry — it keeps serving, at its
// original route generation — while a mutation touching the route
// invalidates exactly it.
func TestCacheHitSkipsEliminate(t *testing.T) {
	s := newTestServer(t)
	first := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	stats := s.Stats()
	if stats.Composes != 1 || stats.EliminateAttempts == 0 {
		t.Fatalf("after first request: %+v", stats)
	}

	second := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	if !second.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if second.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatal("cached result differs from computed result")
	}
	stats2 := s.Stats()
	if stats2.Composes != 1 || stats2.EliminateAttempts != stats.EliminateAttempts {
		t.Fatalf("cache hit re-ran ELIMINATE: %+v vs %+v", stats2, stats)
	}
	if stats2.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats2.CacheHits)
	}

	// An unrelated catalog mutation no longer wipes the cache: the entry
	// is migrated in place and keeps serving at its original route
	// generation, with zero additional ELIMINATE work.
	if rec := do(t, s, "POST", "/v1/register", "schema extra { T/1; }"); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	third := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	if !third.Cached {
		t.Fatal("entry did not survive an unrelated catalog mutation")
	}
	if third.Generation != 1 {
		t.Fatalf("generation = %d, want the route generation 1 (unrelated mutations must not move it)", third.Generation)
	}
	if third.Key != first.Key {
		t.Fatalf("key changed across an unrelated mutation: %q vs %q", third.Key, first.Key)
	}
	st := s.Stats()
	if st.Composes != 1 {
		t.Fatalf("composes = %d, want 1 (migration must not recompute)", st.Composes)
	}
	// Two publishes so far (the initial register transitioned an empty
	// cache); only the second had an entry to migrate.
	if st.Migrations != 2 || st.EntriesMigrated != 1 || st.EntriesDropped != 0 {
		t.Fatalf("migration counters = {migrations:%d migrated:%d dropped:%d}, want {2 1 0}",
			st.Migrations, st.EntriesMigrated, st.EntriesDropped)
	}

	// Re-registering a mapping on the route invalidates exactly this
	// entry: the next request recomputes at the new route generation.
	if rec := do(t, s, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("re-register chain: %d %s", rec.Code, rec.Body)
	}
	fourth := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	if fourth.Cached {
		t.Fatal("route-changing mutation served a stale cache entry")
	}
	if fourth.Generation != 3 {
		t.Fatalf("generation = %d, want 3 after the route mutated", fourth.Generation)
	}
	if s.Stats().Composes != 2 {
		t.Fatalf("composes = %d, want 2", s.Stats().Composes)
	}
	if got := s.Stats().EntriesDropped; got != 1 {
		t.Fatalf("entries dropped = %d, want 1", got)
	}
}

// TestCoalescing holds one composition open while N identical requests
// arrive: exactly one computation must run, and exactly one response may
// report cached=false.
func TestCoalescing(t *testing.T) {
	s := newTestServer(t)
	proceed := make(chan struct{})
	s.composeHook = func(context.Context) { <-proceed }

	const n = 16
	responses := make([]ComposeResponse, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	wg.Add(n)
	started.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
			responses[i] = decode[ComposeResponse](t, rec)
		}(i)
	}
	started.Wait()
	close(proceed)
	wg.Wait()

	if got := s.Stats().Composes; got != 1 {
		t.Fatalf("composes = %d, want 1 (coalescing failed)", got)
	}
	uncached := 0
	for _, r := range responses {
		if !r.Cached {
			uncached++
		}
	}
	if uncached != 1 {
		t.Fatalf("%d responses report cached=false, want exactly 1", uncached)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t)
	body := `{"requests":[
		{"from":"original","to":"split"},
		{"from":"original","to":"fivestar"},
		{"from":"original","to":"split"},
		{"from":"original","to":"nowhere"},
		{"from":"original"}
	]}`
	rec := do(t, s, "POST", "/v1/compose/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp := decode[BatchResponse](t, rec)
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i := 0; i < 3; i++ {
		if resp.Results[i].Response == nil || resp.Results[i].Error != nil || resp.Results[i].Status != 0 {
			t.Fatalf("item %d: %+v", i, resp.Results[i])
		}
	}
	if got := strings.Join(resp.Results[0].Response.Path, ","); got != "m12,m23" {
		t.Fatalf("item 0 path = %s", got)
	}
	if resp.Results[3].Error == nil || !strings.Contains(resp.Results[3].Error.Error, "unknown schema") {
		t.Fatalf("item 3 error = %+v", resp.Results[3].Error)
	}
	if resp.Results[3].Status != http.StatusNotFound {
		t.Fatalf("item 3 status = %d, want 404", resp.Results[3].Status)
	}
	if resp.Results[4].Error == nil || !strings.Contains(resp.Results[4].Error.Error, "from and to") {
		t.Fatalf("item 4 error = %+v", resp.Results[4].Error)
	}
	if resp.Results[4].Status != http.StatusBadRequest {
		t.Fatalf("item 4 status = %d, want 400", resp.Results[4].Status)
	}
	if resp.Canceled {
		t.Fatalf("batch reports canceled")
	}
	// Duplicate pairs inside one batch share a single composition.
	if got := s.Stats().Composes; got != 2 {
		t.Fatalf("composes = %d, want 2", got)
	}

	// Error paths.
	if rec := do(t, s, "POST", "/v1/compose/batch", `{"requests":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/compose/batch", "not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", rec.Code)
	}
}

func TestResultsEndpoint(t *testing.T) {
	s := newTestServer(t)
	first := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	rec := do(t, s, "GET", "/v1/results/"+first.Key, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	fetched := decode[ComposeResponse](t, rec)
	if !fetched.Cached || fetched.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatalf("fetched = %+v", fetched)
	}
	if rec := do(t, s, "GET", "/v1/results/doesnotexist", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key: status %d", rec.Code)
	}
	// Fetches are counted separately from compose-path cache hits.
	stats := s.Stats()
	if stats.ResultFetches != 1 || stats.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 1 result fetch and 0 cache hits", stats)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "GET", "/v1/catalog", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	resp := decode[CatalogResponse](t, rec)
	if resp.Generation != 1 || len(resp.Schemas) != 3 || len(resp.Mappings) != 2 {
		t.Fatalf("catalog = gen %d, %d schemas, %d mappings", resp.Generation, len(resp.Schemas), len(resp.Mappings))
	}
	if resp.Schemas[0].Name != "fivestar" || resp.Schemas[0].Relations["FiveStarMovies"] != 3 {
		t.Fatalf("schemas[0] = %+v", resp.Schemas[0])
	}
	if resp.Mappings[0].Name != "m12" || len(resp.Mappings[0].Constraints) != 1 {
		t.Fatalf("mappings[0] = %+v", resp.Mappings[0])
	}
	if rec := do(t, s, "POST", "/v1/catalog", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: status %d", rec.Code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	rec := do(t, s, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	stats := decode[StatsResponse](t, rec)
	if stats.Composes != 1 || stats.CacheHits != 1 || stats.CacheEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Generation != 1 || stats.EliminateAttempts == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestCacheEviction drives more distinct keys than the cache holds and
// checks the bound.
func TestCacheEviction(t *testing.T) {
	s := New(Config{CacheSize: 2})
	if rec := do(t, s, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %s", rec.Body)
	}
	// Three distinct pairs through a 2-entry cache: the third insert
	// must evict the least recently used pair, and re-requesting the
	// evicted pair recomputes.
	do(t, s, "POST", "/v1/compose", `{"from":"original","to":"fivestar"}`)
	do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	do(t, s, "POST", "/v1/compose", `{"from":"fivestar","to":"split"}`)
	if got := s.cache.len(); got > 2 {
		t.Fatalf("cache grew to %d entries, bound is 2", got)
	}
	if got := s.Stats().Composes; got != 3 {
		t.Fatalf("composes = %d, want 3", got)
	}
	// original→fivestar was evicted; requesting it again recomputes.
	resp := decode[ComposeResponse](t, do(t, s, "POST", "/v1/compose", `{"from":"original","to":"fivestar"}`))
	if resp.Cached {
		t.Fatal("evicted pair reported cached")
	}
	if got := s.Stats().Composes; got != 4 {
		t.Fatalf("composes = %d, want 4 after re-requesting the evicted pair", got)
	}
}

// TestCacheByteBudget bounds the cache by bytes: entries charge their
// exact pre-encoded size plus overhead, and the budget evicts before
// the entry count does.
func TestCacheByteBudget(t *testing.T) {
	// Room for roughly two chainTask entries (each a few hundred bytes
	// encoded + 512 overhead) but far more than two by count.
	s := New(Config{CacheBytes: 2 << 10})
	if rec := do(t, s, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %s", rec.Body)
	}
	for _, pair := range []string{
		`{"from":"original","to":"fivestar"}`,
		`{"from":"original","to":"split"}`,
		`{"from":"fivestar","to":"split"}`,
	} {
		if rec := do(t, s, "POST", "/v1/compose", pair); rec.Code != http.StatusOK {
			t.Fatalf("compose %s: %d %s", pair, rec.Code, rec.Body)
		}
	}
	st := s.Stats()
	if st.CacheBytes == 0 {
		t.Fatal("cache_bytes not reported")
	}
	if st.CacheBytes > 2<<10 {
		t.Fatalf("cache bytes = %d, exceeds the 2KiB budget", st.CacheBytes)
	}
	if st.CacheEntries >= 3 {
		t.Fatalf("cache entries = %d, the byte budget should have evicted", st.CacheEntries)
	}
	// An accounting cross-check: the reported bytes equal the summed
	// entry sizes.
	var sum int64
	for _, sh := range s.cache.shards {
		for _, e := range sh.view.Load().items {
			sum += e.size
		}
	}
	if sum != st.CacheBytes {
		t.Fatalf("cache_bytes %d != summed entry sizes %d", st.CacheBytes, sum)
	}
}

// TestConcurrentMixedTraffic exercises the full server under the race
// detector: registrations mutating the catalog while single and batched
// composes stream in.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := fmt.Sprintf("schema aux%d { Aux%d/2; }", w, w)
				if rec := do(t, s, "POST", "/v1/register", src); rec.Code != http.StatusOK {
					t.Errorf("register: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
				if rec.Code != http.StatusOK {
					t.Errorf("compose: %d %s", rec.Code, rec.Body)
					return
				}
				rec = do(t, s, "POST", "/v1/compose/batch",
					`{"requests":[{"from":"original","to":"fivestar"},{"from":"fivestar","to":"split"}]}`)
				if rec.Code != http.StatusOK {
					t.Errorf("batch: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
}
