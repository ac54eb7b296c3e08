package server

import (
	"time"

	"mapcomp/internal/catalog"
)

// onPublish is the catalog publish hook: it transitions the result
// cache across one catalog mutation. It diffs the two snapshots and
// drops exactly the pairs whose route changed, migrating every other
// entry in place. The singleflight and hit machinery keep running
// throughout: the hook only bumps watermarks and unlinks dropped
// entries.
//
// The hook runs inside the catalog's write lock, so it is strictly
// ordered — migration for generation N completes before the mutation
// producing N+1 can publish — which is what makes the per-publish
// counter identity (candidates = migrated + dropped) exact. The work is
// bounded: ComputeDelta searches only the schemas that can reach a
// changed edge, and migrate is one pass over the cached entries.
func (s *Server) onPublish(oldSnap, newSnap catalog.Snap) {
	start := time.Now()
	d := catalog.ComputeDelta(oldSnap, newSnap)
	dd := time.Since(start)
	// The running sum is /v1/stats delta_compute_us, whose mean perfbench
	// reports as catalog.delta_ms_mean; the histogram has the tail.
	s.deltaUS.Add(dd.Microseconds())
	deltaComputeSeconds.Observe(dd)
	migStart := time.Now()
	m := s.cache.migrate(oldSnap.Generation(), newSnap.Generation(), d.Invalidated)
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
