package server

import (
	"context"
	"errors"
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
// store — no re-encode) and drops only the entries the snapshot delta
// names (see migrate). A mutation therefore invalidates the few pairs
// it actually changed instead of orphaning the cache.
//
// One map (plus its rendered-key index) sits behind one RWMutex. Hits —
// probe and get — hold the read lock for a map lookup and the
// watermark check, and stamp the entry's recency from one atomic clock.
// Mutations — inserts, evictions, migration and the singleflight
// book-keeping — hold the write lock and edit the maps in place.
// Eviction is LRU by that clock, bounded by bytes: entries carry their
// exact wire size (the pre-encoded body plus fixed overhead), and the
// least recently used entry, found by a scan, is dropped while the
// cache exceeds its byte budget. The scan runs only on a miss, whose
// composition costs orders of magnitude more.
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
// are coalesced singleflight-style: the first caller computes, every
// caller that arrives while the computation is in flight waits for it
// and shares the outcome, so N identical requests cost one ELIMINATE
// run, not N. Flights are keyed by (pair, observed generation) — a
// request that observed a newer snapshot never adopts the result of a
// flight started under an older one, so a migration (or an
// invalidation) racing a hit can at worst cause an extra computation,
// never a stale response.
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
// and its slots in the two maps. It keeps byte accounting honest for
// caches full of tiny results.
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
	used atomic.Int64  // cache clock value at last touch (LRU recency)
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

type resultCache struct {
	clock atomic.Int64 // recency clock; bumped on every touch

	mu       sync.RWMutex // read-held by hits; write-held by every mutation
	items    map[pairKey]*cacheEntry
	byString map[string]*cacheEntry
	bytes    int64 // summed size of items
	maxBytes int64
	calls    map[flightKey]*call
}

// newResultCache builds a cache bounded to maxBytes bytes (> 0).
func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		items:    make(map[pairKey]*cacheEntry),
		byString: make(map[string]*cacheEntry),
		maxBytes: maxBytes,
		calls:    make(map[flightKey]*call),
	}
}

// touch records a use for LRU eviction. Callers hold c.mu (either mode);
// the stamp is atomic because readers stamp concurrently.
func (c *resultCache) touch(ent *cacheEntry) {
	ent.used.Store(c.clock.Add(1))
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
	fk := flightKey{pair: pair, gen: gen}
	for {
		// Probe before honouring the deadline: a hit costs microseconds,
		// so even an already-expired request is served its cached
		// response rather than a pointless 504.
		if ent, ok := c.probe(pair, gen); ok {
			return ent, cacheHit, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, computed, context.Cause(ctx)
		}
		c.mu.Lock()
		// Re-probe under the write lock: a computation or a migration may
		// have completed between the read-locked miss and the acquisition.
		if ent := c.lookup(pair, gen); ent != nil {
			c.mu.Unlock()
			return ent, cacheHit, nil
		}
		if cl, ok := c.calls[fk]; ok {
			c.mu.Unlock()
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
		c.calls[fk] = cl
		c.mu.Unlock()

		resp, snapGen, err := compute(ctx)
		cl.err = err
		if err == nil {
			// Encode outside the lock: the store below is map edits only.
			cl.ent = newCacheEntry(pair, resp, snapGen)
		}

		c.mu.Lock()
		delete(c.calls, fk)
		switch {
		case err == nil:
			c.touch(cl.ent)
			c.insertLocked(cl.ent)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			cl.abandoned = true
		}
		c.mu.Unlock()
		close(cl.done)
		return cl.ent, computed, cl.err
	}
}

// insertLocked stores ent, evicting the least recently used entries
// while the cache exceeds its byte budget. If the pair is already
// cached with an equally fresh or fresher watermark, the existing entry
// wins — its response is provably byte-identical at any generation both
// are valid for. Callers hold c.mu for writing.
func (c *resultCache) insertLocked(ent *cacheEntry) {
	if prev := c.items[ent.pair]; prev != nil {
		if prev.gen.Load() >= ent.gen.Load() {
			c.touch(prev)
			return
		}
		c.removeLocked(prev)
	}
	c.items[ent.pair] = ent
	c.byString[ent.skey] = ent
	c.bytes += ent.size
	for c.bytes > c.maxBytes && len(c.items) > 0 {
		var victim *cacheEntry
		for _, e := range c.items {
			if victim == nil || e.used.Load() < victim.used.Load() {
				victim = e
			}
		}
		c.removeLocked(victim)
	}
}

// removeLocked unlinks ent from both maps. Callers hold c.mu for
// writing.
func (c *resultCache) removeLocked(ent *cacheEntry) {
	delete(c.items, ent.pair)
	c.bytes -= ent.size
	// A duplicate skey (possible only for hand-built entries with
	// colliding Key fields) must not unlink a survivor's handle.
	if c.byString[ent.skey] == ent {
		delete(c.byString, ent.skey)
	}
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
}

// migrate transitions the cache across a catalog publish oldGen→newGen.
// invalid reports whether a pair's route changed across the publish
// (ComputeDelta's Invalidated). For every entry validated before
// newGen: if its route is unchanged and its watermark is exactly the
// published range's floor or newer, the watermark is bumped to newGen
// in place — the entry keeps its identity, its pre-encoded bytes and
// its recency. Entries whose route changed are dropped, as are strays
// validated before oldGen (an insert that raced past earlier
// publishes; its route may have changed across a span this delta does
// not cover, so dropping is the conservative choice — the next request
// recomputes).
func (c *resultCache) migrate(oldGen, newGen uint64, invalid func(from, to string) bool) migration {
	var m migration
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.items {
		g := e.gen.Load()
		if g >= newGen {
			continue
		}
		m.candidates++
		if g < oldGen || invalid(e.pair.from, e.pair.to) {
			c.removeLocked(e)
			m.dropped++
			continue
		}
		e.gen.Store(newGen)
		m.migrated++
	}
	return m
}

// probe is the one fast lookup: a read-locked map lookup and the
// watermark check, with no flight or context. serveCompose calls it
// with the decoded request strings before deriving a deadline context,
// so a hit never pays context.WithTimeout; do starts with it. Misses
// fall through to do.
func (c *resultCache) probe(pair pairKey, gen uint64) (*cacheEntry, bool) {
	c.mu.RLock()
	ent := c.lookup(pair, gen)
	c.mu.RUnlock()
	return ent, ent != nil
}

// lookup returns the entry for pair if its watermark is ≥ gen, touching
// it for recency; nil otherwise. Callers hold c.mu (either mode).
func (c *resultCache) lookup(pair pairKey, gen uint64) *cacheEntry {
	if ent := c.items[pair]; ent != nil && ent.gen.Load() >= gen {
		c.touch(ent)
		return ent
	}
	return nil
}

// get fetches a cached entry by its rendered key.
func (c *resultCache) get(skey string) (*cacheEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ent := c.byString[skey]
	if ent != nil {
		c.touch(ent)
	}
	return ent, ent != nil
}

// stats reports the entry count and their summed size, read under one
// lock so the two describe the same set of entries.
func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.items), c.bytes
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	n, _ := c.stats()
	return n
}

// keys snapshots every cached pair; tests use it to assert invariants
// (e.g. that no abandoned flight was ever stored).
func (c *resultCache) keys() []pairKey {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]pairKey, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	return out
}
