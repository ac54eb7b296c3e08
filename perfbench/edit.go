package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mapcomp/internal/evolution"
	"mapcomp/internal/experiment"
)

// The §4.2 editing study as Figure 3 runs it: "no keys", schema size
// 30, 100 edits per run.
const (
	editSchemaSize = 30
	editEdits      = 100
	editPool       = 128 // the fixed seed set: run seeds 1..editPool
	editSeedsPer   = 16  // run seeds per repetition (child process)
)

// pinsFile holds, per run seed, the σ2 symbols the edit sequence
// attempted and eliminated, as the program computed them when the pins
// were written (perfbench -write-pins). A repetition that computes
// other counts fails its check.
//
//go:embed pins_fig3.json
var pinsFile []byte

func loadPins() (map[int64][2]int, error) {
	var raw map[string][2]int
	if err := json.Unmarshal(pinsFile, &raw); err != nil {
		return nil, fmt.Errorf("pins_fig3.json: %w", err)
	}
	out := make(map[int64][2]int, len(raw))
	for k, v := range raw {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pins_fig3.json: seed %q: %w", k, err)
		}
		out[s] = v
	}
	return out, nil
}

// planEdit lays out the fixed seed set in ascending order. Every run
// measures each seed twice; repetition slices are fixed runs of
// editSeedsPer consecutive seeds, so a slice sees the same process
// history (memo caches, interner) in every run, and the workload seed
// only picks the slice that runs first.
func planEdit(p *plan) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	p.Pins = pins
	for s := int64(1); s <= editPool; s++ {
		if _, ok := pins[s]; !ok {
			return fmt.Errorf("pins_fig3.json: no pin for seed %d", s)
		}
		p.EditSeeds = append(p.EditSeeds, s)
	}
	return nil
}

func editConfig(seed int64) *evolution.EditingConfig {
	keys, cfg := experiment.Named(experiment.CfgNoKeys)
	return &evolution.EditingConfig{
		SchemaSize: editSchemaSize, Edits: editEdits, Keys: keys, Core: cfg, Seed: seed,
	}
}

// runEditRep runs every seed of the plan once through
// evolution.RunEditing and checks each run's counts against its pins.
func runEditRep(p *plan) (*repResult, error) {
	r := newRepResult()
	r.Traced = p.Traced
	ctx := context.Background()
	var rec *recorder
	if p.Traced {
		rec = newRecorder()
	}
	r.BenchOnlyNS = time.Since(processStart).Nanoseconds()
	before := takeMarks(nil)
	heap := startHeapSampler()
	start := time.Now()
	r.FirstOpNS = start.UnixNano()
	var edits int64
	lo := p.Slice * editSeedsPer
	for i, seed := range p.EditSeeds[lo:min(lo+editSeedsPer, len(p.EditSeeds))] {
		t0 := time.Now()
		run := evolution.RunEditing(ctx, editConfig(seed))
		d := time.Since(t0)
		r.Samples["secondary"] = append(r.Samples["secondary"], d.Nanoseconds())
		var att, elim int
		for _, st := range run.Stats {
			att += st.Attempted
			elim += st.Eliminated
			r.Samples["compose"] = append(r.Samples["compose"], st.Duration.Nanoseconds())
		}
		edits += int64(len(run.Stats))
		r.Sums["att"] += float64(att)
		r.Sums["elim"] += float64(elim)
		r.Attempted++
		if want := p.Pins[seed]; want != [2]int{att, elim} {
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("edit seed %d: attempted/eliminated %d/%d, pinned %d/%d",
				seed, att, elim, want[0], want[1]))
		}
		if rec != nil {
			traceEditRun(rec, uint64(i+1), t0, d, run)
		}
	}
	peak := heap.stop()
	after := takeMarks(nil)
	r.Values["peak_heap_mb"] = float64(peak) / (1 << 20)
	phaseCounters(r, before, after, 0)
	coreFigures(r, before, after)
	if rec != nil {
		spans := rec.take()
		for _, ss := range selfTimes(spans) {
			for _, x := range ss {
				r.Sums["self."+x.layer()+"_ns"] += float64(x.self)
			}
		}
		r.Sums["traced_ops"] += float64(edits)
		writeSpans(p, spans)
	}
	return r, nil
}

// traceEditRun records one editing run: the evolution.RunEditing call
// and, as its children, each edit's composition (known by duration).
func traceEditRun(rec *recorder, op uint64, t0 time.Time, d time.Duration, run *evolution.EditingRun) {
	start := rec.ns(t0)
	rec.add(span{Op: op, Name: "evolution.run", Kind: "run", Start: start, End: start + d.Nanoseconds()})
	at := start
	for _, st := range run.Stats {
		rec.add(span{Op: op, Name: "core.edit", Parent: "evolution.run", Start: at, End: at + st.Duration.Nanoseconds()})
		at += st.Duration.Nanoseconds()
	}
}

// writeFig3Pins recomputes the pinned counts for seeds 1..editPool and
// writes perfbench/pins_fig3.json (run from the repository root).
func writeFig3Pins() error {
	out := map[string][2]int{}
	for s := int64(1); s <= editPool; s++ {
		run := evolution.RunEditing(context.Background(), editConfig(s))
		var att, elim int
		for _, st := range run.Stats {
			att += st.Attempted
			elim += st.Eliminated
		}
		out[strconv.FormatInt(s, 10)] = [2]int{att, elim}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "pins_fig3.json"), append(b, '\n'), 0o644)
}
