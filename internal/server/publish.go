package server

import (
	"time"

	"mapcomp/internal/catalog"
)

// onPublish is the catalog publish hook: it transitions the result
// cache across one catalog mutation. With delta invalidation on it
// diffs the two snapshots and drops exactly the pairs whose route
// changed, migrating every other entry in place; with it off
// (Config.DisableDelta) it passes a nil predicate and migrate drops
// every pre-publish entry — the wipe-on-write baseline. Either way the
// singleflight and hit machinery keep running throughout: the hook only
// bumps watermarks and unlinks dropped entries.
//
// The hook runs inside the catalog's write lock, so it is strictly
// ordered — migration for generation N completes before the mutation
// producing N+1 can publish — which is what makes the per-publish
// counter identity (candidates = migrated + dropped) exact. The work is
// bounded: ComputeDelta is one linear pass over the graph plus two BFS
// runs per schema that can reach the mutation, and migrate one pass
// over the cached entries.
func (s *Server) onPublish(oldSnap, newSnap catalog.Snap) {
	var invalid func(from, to string) bool
	if !s.deltaOff {
		start := time.Now()
		d := catalog.ComputeDelta(oldSnap, newSnap)
		dd := time.Since(start)
		s.deltaUS.Add(dd.Microseconds()) // benchsnap's mean; the histogram has the tail
		deltaComputeSeconds.Observe(dd)
		invalid = d.Invalidated
	}
	migStart := time.Now()
	m := s.cache.migrate(oldSnap.Generation(), newSnap.Generation(), invalid)
	cacheMigrateSeconds.Observe(time.Since(migStart))
	s.migrations.Add(1)
	s.entriesMigrated.Add(int64(m.migrated))
	s.entriesDropped.Add(int64(m.dropped))
	if s.migrateHook != nil {
		s.migrateHook(migrationRecord{
			fromGen: oldSnap.Generation(), toGen: newSnap.Generation(),
			candidates: m.candidates, migrated: m.migrated, dropped: m.dropped,
		})
	}
}
