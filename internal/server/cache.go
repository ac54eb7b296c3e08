package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// resultCache is the bounded cache of composed results, keyed on
// (endpoint pair, config fingerprint). The catalog generation is NOT
// part of the storage key: each entry instead carries a validated-at
// watermark — the newest generation at which the entry's route is known
// unchanged. A probe made at generation G accepts an entry iff its
// watermark is ≥ G, so entries survive catalog mutations that do not
// affect their route: on every publish the serving layer migrates
// unaffected entries in place by bumping their watermark (an atomic
// store — no re-encode, no map copy) and drops only the entries the
// snapshot delta names (see migrate). A mutation therefore invalidates
// the few pairs it actually changed instead of orphaning the cache.
//
// The cache is sharded: pairs hash to one of a power-of-two number of
// shards (derived from GOMAXPROCS unless overridden), so concurrent
// requests for distinct pairs never contend on a shared lock. Within a
// shard, mutations — inserts, evictions, migration drops and the
// singleflight book-keeping — serialize under the shard mutex, while
// lookups are lock-free: each shard publishes an immutable view of its
// entries through an atomic pointer (the same copy-on-write discipline
// as internal/catalog), and a hit only loads the pointer, probes a map
// that is never mutated after publication, checks the watermark and
// bumps the entry's recency clock. Eviction is approximate LRU per
// shard, bounded by entries and by bytes: entries carry an atomically
// updated use counter and their exact wire size (the pre-encoded body
// plus fixed overhead), and the least recently used entry is dropped
// while the shard exceeds either its slice of the global entry bound or
// of the global byte budget.
//
// Every stored entry carries the response pre-encoded in the wire
// encoding with cached=true (see newCacheEntry), so the serving layer
// writes hits — POST /v1/compose hits, coalesced waiters, batch items
// and GET /v1/results/{key} — straight to the ResponseWriter without
// marshaling anything. Migration preserves those bytes verbatim, which
// is safe because a migrated entry's route — path, mapping revisions,
// endpoint schema revisions, hence its route generation and its full
// response body — is provably identical at the new generation.
//
// Concurrent requests for the same pair at the same observed generation
// are coalesced singleflight-style per shard: the first caller
// computes, every caller that arrives while the computation is in
// flight waits for it and shares the outcome, so N identical requests
// cost one ELIMINATE run, not N. Flights are keyed by (pair, observed
// generation) — a request that observed a newer snapshot never adopts
// the result of a flight started under an older one, so a migration (or
// an invalidation) racing a hit can at worst cause an extra
// computation, never a stale response.
//
// Cancellation never poisons the cache. A waiter whose own context ends
// stops waiting and reports its context's error. A leader preempted by
// its context abandons the flight instead of completing it: nothing is
// stored, and the waiters re-enter the cache, where one of them — the
// first with a live context — becomes the new leader and computes under
// its own deadline. Waiters that share the leader's cancelled context
// observe their own cancellation on re-entry, so they all see the error
// and the pair is left unclaimed for future requests.

// pairKey identifies a cached composition: the ordered endpoint pair
// and the algorithm configuration fingerprint.
type pairKey struct {
	from, to string
	cfg      uint64
}

// flightKey identifies one in-flight computation: the pair plus the
// catalog generation the requester observed. Keeping the generation in
// the flight key (but not the storage key) means requests racing a
// catalog mutation coalesce only with requests that observed the same
// snapshot.
type flightKey struct {
	pair pairKey
	gen  uint64
}

// entryOverhead approximates the fixed per-entry cost beyond the
// pre-encoded body: the entry struct, the decoded response it retains,
// and its slots in the two view maps. It keeps byte accounting honest
// for caches full of tiny results.
const entryOverhead = 512

// cacheEntry is one stored result: the decoded response (Cached=false,
// as computed), its rendered key — the wire handle for
// GET /v1/results/{key} — the pre-encoded cached=true body, and the
// validated-at watermark.
type cacheEntry struct {
	pair pairKey
	skey string
	resp *ComposeResponse
	enc  []byte        // pre-encoded wire body with cached=true; nil only if encoding failed
	size int64         // exact byte charge: len(enc)+len(skey)+entryOverhead
	gen  atomic.Uint64 // validated-at watermark; bumped in place by migrate
	used atomic.Int64  // shard clock value at last touch (approximate LRU)
}

// newCacheEntry builds the stored form of a freshly computed response,
// paying the single hit-path encode up front: every future hit writes
// enc verbatim. gen is the generation of the snapshot the response was
// computed under. An encoding failure (impossible for the wire types,
// but kept non-fatal) leaves enc nil and the handlers fall back to
// marshaling per hit.
func newCacheEntry(pair pairKey, resp *ComposeResponse, gen uint64) *cacheEntry {
	ent := &cacheEntry{pair: pair, skey: resp.Key, resp: resp}
	ent.gen.Store(gen)
	// With enc still nil, outcomeBytes marshals the cached=true body; on
	// failure it returns nil, which is the documented fallback.
	ent.enc, _ = outcomeBytes(ent, cacheHit, nil)
	ent.size = int64(len(ent.enc)+len(ent.skey)) + entryOverhead
	return ent
}

// call is one in-flight computation other requests can wait on.
type call struct {
	done chan struct{}
	ent  *cacheEntry
	err  error
	// abandoned marks a flight whose leader was preempted by context
	// cancellation: the outcome is the leader's deadline, not the pair's,
	// so waiters retry instead of adopting it.
	abandoned bool
}

// hitKind classifies how a request was satisfied.
type hitKind int

const (
	computed  hitKind = iota // this caller ran the composition
	cacheHit                 // served from the cache
	coalesced                // waited on another caller's computation
)

// shardView is the immutable snapshot a shard publishes: both maps are
// built under the shard mutex and never mutated after the pointer swap,
// so readers need no lock. bytes is the summed size of items.
type shardView struct {
	items    map[pairKey]*cacheEntry
	byString map[string]*cacheEntry
	bytes    int64
}

var emptyShardView = &shardView{
	items:    map[pairKey]*cacheEntry{},
	byString: map[string]*cacheEntry{},
}

type cacheShard struct {
	view  atomic.Pointer[shardView]
	clock atomic.Int64 // recency clock; bumped on every touch

	mu       sync.Mutex // guards view mutations and calls
	calls    map[flightKey]*call
	max      int   // this shard's slice of the global entry bound; 0 = unbounded
	maxBytes int64 // this shard's slice of the global byte budget; 0 = unbounded
}

type resultCache struct {
	shards []*cacheShard
	mask   uint64
}

// minShardCap is the smallest per-shard entry capacity worth sharding
// for: below it the shard count is halved so tiny caches keep exact
// bounds (and the degenerate 1-shard cache behaves like the old single
// LRU). minShardBytes is the byte-budget equivalent for caches bounded
// only by bytes.
const (
	minShardCap   = 8
	minShardBytes = 16 << 10
)

// defaultShardCount derives the shard count from GOMAXPROCS, rounded up
// to a power of two and capped at 64 — beyond the core count extra
// shards only spread the same contention thinner.
func defaultShardCount() int {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	return n
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newResultCache builds a cache bounded to max entries (0 = no entry
// bound) and maxBytes bytes (0 = no byte budget) across shards shards
// (0 = derived from GOMAXPROCS; other values round up to a power of
// two, capped at 64 like the derivation — the cap also keeps an absurd
// -cache-shards from overflowing nextPow2). The shard count is reduced
// until every shard's slice of whichever bound is active stays useful,
// so small caches keep tight bounds.
func newResultCache(max int, maxBytes int64, shards int) *resultCache {
	n := shards
	if n <= 0 {
		n = defaultShardCount()
	}
	if n > 64 {
		n = 64
	}
	n = nextPow2(n)
	for n > 1 {
		if max > 0 && max/n < minShardCap {
			n >>= 1
			continue
		}
		if max == 0 && maxBytes > 0 && maxBytes/int64(n) < minShardBytes {
			n >>= 1
			continue
		}
		break
	}
	c := &resultCache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	base, rem := max/n, max%n
	bBase, bRem := maxBytes/int64(n), maxBytes%int64(n)
	for i := range c.shards {
		capacity := base
		if max > 0 && i < rem {
			capacity++
		}
		budget := bBase
		if maxBytes > 0 && int64(i) < bRem {
			budget++
		}
		sh := &cacheShard{calls: make(map[flightKey]*call), max: capacity, maxBytes: budget}
		sh.view.Store(emptyShardView)
		c.shards[i] = sh
	}
	return c
}

// shard selects the shard for pair by FNV-1a over the pair fields; the
// hash never allocates (no rendered key string on the probe path).
func (c *resultCache) shard(pair pairKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(pair.from); i++ {
		h = (h ^ uint64(pair.from[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("ab","c") must differ from ("a","bc")
	for i := 0; i < len(pair.to); i++ {
		h = (h ^ uint64(pair.to[i])) * prime64
	}
	h = (h ^ pair.cfg) * prime64
	return c.shards[h&c.mask]
}

// touch records a use for approximate-LRU eviction.
func (sh *cacheShard) touch(ent *cacheEntry) {
	ent.used.Store(sh.clock.Add(1))
}

// do returns the entry for pair valid at generation gen, computing it
// at most once across all concurrent callers with live contexts that
// observed the same generation. A stored entry satisfies the request
// iff its watermark is ≥ gen — entries migrated across catalog
// mutations keep serving, entries the delta invalidated were dropped
// and miss. compute returns the response plus the generation of the
// snapshot it actually composed under, which becomes the new entry's
// watermark. Responses are stored only on success; errors are shared
// with coalesced waiters but never cached, and a context-cancellation
// outcome is not even shared — it hands the flight off (see the package
// comment). The stored entry's skey is the computed response's Key
// field, rendered once inside the computation.
func (c *resultCache) do(ctx context.Context, pair pairKey, gen uint64, compute func(context.Context) (*ComposeResponse, uint64, error)) (*cacheEntry, hitKind, error) {
	sh := c.shard(pair)
	fk := flightKey{pair: pair, gen: gen}
	for {
		// Lock-free probe, and before honouring the deadline: a hit
		// costs microseconds, so even an already-expired request is
		// served its cached response rather than a pointless 504.
		if ent := sh.lookup(pair, gen); ent != nil {
			return ent, cacheHit, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, computed, context.Cause(ctx)
		}
		sh.mu.Lock()
		// Re-probe under the mutex: a computation or a migration may
		// have completed between the lock-free miss and the lock
		// acquisition.
		if ent := sh.lookup(pair, gen); ent != nil {
			sh.mu.Unlock()
			return ent, cacheHit, nil
		}
		if cl, ok := sh.calls[fk]; ok {
			sh.mu.Unlock()
			select {
			case <-cl.done:
				if cl.abandoned {
					continue // leader preempted; retry under our own context
				}
				return cl.ent, coalesced, cl.err
			case <-ctx.Done():
				return nil, coalesced, context.Cause(ctx)
			}
		}
		cl := &call{done: make(chan struct{})}
		sh.calls[fk] = cl
		sh.mu.Unlock()

		resp, snapGen, err := compute(ctx)
		cl.err = err
		if err == nil {
			// Encode outside the lock: the store below is map copies only.
			cl.ent = newCacheEntry(pair, resp, snapGen)
		}

		sh.mu.Lock()
		delete(sh.calls, fk)
		switch {
		case err == nil:
			sh.touch(cl.ent)
			sh.insertLocked(cl.ent)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			cl.abandoned = true
		}
		sh.mu.Unlock()
		close(cl.done)
		return cl.ent, computed, cl.err
	}
}

// insertLocked publishes a new view containing ent, evicting the least
// recently used entries while the shard exceeds its entry capacity or
// byte budget. If the pair is already cached with an equally fresh or
// fresher watermark, the existing entry wins — its response is provably
// byte-identical at any generation both are valid for, and keeping it
// skips the view copy. Callers hold sh.mu.
//
// The full-map copy per insert is the deliberate price of lock-free
// readers: the published maps must never be mutated (Go maps tolerate
// no concurrent read/write), so "mutate then republish the pointer"
// is not an option. The copy is O(shard capacity) — at the default
// 256 entries spread over the shards it is microseconds — and it only
// runs on a miss, whose composition costs orders of magnitude more;
// raise the shard count before raising per-shard capacity if inserts
// ever show up in a profile.
func (sh *cacheShard) insertLocked(ent *cacheEntry) {
	old := sh.view.Load()
	if prev := old.items[ent.pair]; prev != nil && prev.gen.Load() >= ent.gen.Load() {
		sh.touch(prev)
		return
	}
	next := &shardView{
		items:    make(map[pairKey]*cacheEntry, len(old.items)+1),
		byString: make(map[string]*cacheEntry, len(old.byString)+1),
		bytes:    old.bytes,
	}
	for k, e := range old.items {
		next.items[k] = e
	}
	for k, e := range old.byString {
		next.byString[k] = e
	}
	if prev := next.items[ent.pair]; prev != nil {
		next.bytes -= prev.size
		if next.byString[prev.skey] == prev {
			delete(next.byString, prev.skey)
		}
	}
	next.items[ent.pair] = ent
	next.byString[ent.skey] = ent
	next.bytes += ent.size
	for (sh.max > 0 && len(next.items) > sh.max) || (sh.maxBytes > 0 && next.bytes > sh.maxBytes) {
		var victim *cacheEntry
		for _, e := range next.items {
			if victim == nil || e.used.Load() < victim.used.Load() {
				victim = e
			}
		}
		delete(next.items, victim.pair)
		next.bytes -= victim.size
		// A duplicate skey (possible only for hand-built entries with
		// colliding Key fields) must not unlink a survivor's handle.
		if next.byString[victim.skey] == victim {
			delete(next.byString, victim.skey)
		}
		if len(next.items) == 0 {
			break
		}
	}
	sh.view.Store(next)
}

// droppedPair records one entry a migration dropped, with its recency
// clock value: the rewarm queue uses the recency to recompute the
// hottest invalidated pairs first.
type droppedPair struct {
	pair pairKey
	used int64
}

// migration summarizes one cache transition across a catalog publish.
// The identity candidates == migrated + dropped holds by construction:
// every entry whose watermark predates the new generation is classified
// exactly once, as migrated (watermark bumped in place) or dropped.
// Entries inserted concurrently at or past the new generation are not
// candidates and are left alone.
type migration struct {
	candidates int
	migrated   int
	dropped    int
	droppedHot []droppedPair
}

// migrate transitions the cache across a catalog publish oldGen→newGen.
// invalid reports whether a pair's route changed across the publish
// (ComputeDelta's Invalidated); a nil invalid means "everything
// changed" — the wipe-on-write baseline, used when delta invalidation
// is disabled. For every entry validated before newGen: if its route is
// unchanged and its watermark is exactly the published range's floor or
// newer, the watermark is bumped to newGen in place — the entry keeps
// its identity, its pre-encoded bytes and its recency, and concurrent
// lock-free hits keep being served off the existing view throughout.
// Entries whose route changed are dropped, as are strays validated
// before oldGen (an insert that raced past earlier publishes; its route
// may have changed across a span this delta does not cover, so dropping
// is the conservative choice — the next request recomputes).
func (c *resultCache) migrate(oldGen, newGen uint64, invalid func(from, to string) bool) migration {
	var m migration
	for _, sh := range c.shards {
		sh.mu.Lock()
		old := sh.view.Load()
		var drops []*cacheEntry
		for _, e := range old.items {
			g := e.gen.Load()
			if g >= newGen {
				continue
			}
			m.candidates++
			if g < oldGen || invalid == nil || invalid(e.pair.from, e.pair.to) {
				drops = append(drops, e)
				continue
			}
			e.gen.Store(newGen)
			m.migrated++
		}
		if len(drops) > 0 {
			m.dropped += len(drops)
			next := &shardView{
				items:    make(map[pairKey]*cacheEntry, len(old.items)),
				byString: make(map[string]*cacheEntry, len(old.byString)),
				bytes:    old.bytes,
			}
			for k, e := range old.items {
				next.items[k] = e
			}
			for k, e := range old.byString {
				next.byString[k] = e
			}
			for _, e := range drops {
				delete(next.items, e.pair)
				next.bytes -= e.size
				if next.byString[e.skey] == e {
					delete(next.byString, e.skey)
				}
				m.droppedHot = append(m.droppedHot, droppedPair{pair: e.pair, used: e.used.Load()})
			}
			sh.view.Store(next)
		}
		sh.mu.Unlock()
	}
	return m
}

// probe is the one fast lookup: a lock-free load of the shard's view
// and the watermark check, with no lock, flight or context. serveCompose
// calls it with the decoded request strings before deriving a deadline
// context, so a hit never pays context.WithTimeout; do starts with the
// same lookup. Misses fall through to do.
func (c *resultCache) probe(pair pairKey, gen uint64) (*cacheEntry, bool) {
	ent := c.shard(pair).lookup(pair, gen)
	return ent, ent != nil
}

// lookup returns the entry for pair if its watermark is ≥ gen, touching
// it for recency; nil otherwise. It takes no lock: the view is an
// immutable snapshot.
func (sh *cacheShard) lookup(pair pairKey, gen uint64) *cacheEntry {
	if ent := sh.view.Load().items[pair]; ent != nil && ent.gen.Load() >= gen {
		sh.touch(ent)
		return ent
	}
	return nil
}

// valid reports whether pair is cached with a watermark ≥ gen — i.e.
// whether a request observing gen would hit. Warm uses it to skip pairs
// that survived a migration.
func (c *resultCache) valid(pair pairKey, gen uint64) bool {
	ent := c.shard(pair).view.Load().items[pair]
	return ent != nil && ent.gen.Load() >= gen
}

// get fetches a cached entry by its rendered key. The shard is not
// derivable from the string without re-parsing it, so all shards are
// probed — each probe is one lock-free pointer load and map lookup, and
// GET /v1/results is far off the hot path.
func (c *resultCache) get(skey string) (*cacheEntry, bool) {
	for _, sh := range c.shards {
		if ent := sh.view.Load().byString[skey]; ent != nil {
			sh.touch(ent)
			return ent, true
		}
	}
	return nil, false
}

// len reports the number of cached entries across all shards.
func (c *resultCache) len() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.view.Load().items)
	}
	return n
}

// bytes reports the summed size of all cached entries, for /v1/stats.
func (c *resultCache) bytes() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.view.Load().bytes
	}
	return n
}

// cacheStats is a mutually consistent cache summary: every number is
// derived from a single load of each shard's published view, so the
// total always equals the per-shard sum and the byte count describes
// exactly the counted entries — three separate sweeps (len, bytes,
// shardLens) could each observe a different set of views under load.
type cacheStats struct {
	entries  int
	bytes    int64
	perShard []int
}

// stats collects the consistent summary /v1/stats serves.
func (c *resultCache) stats() cacheStats {
	out := cacheStats{perShard: make([]int, len(c.shards))}
	for i, sh := range c.shards {
		v := sh.view.Load()
		out.perShard[i] = len(v.items)
		out.entries += len(v.items)
		out.bytes += v.bytes
	}
	return out
}

// keys snapshots every cached pair; tests use it to assert invariants
// (e.g. that no abandoned flight was ever stored).
func (c *resultCache) keys() []pairKey {
	var out []pairKey
	for _, sh := range c.shards {
		for k := range sh.view.Load().items {
			out = append(out, k)
		}
	}
	return out
}
