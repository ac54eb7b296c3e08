// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads and prints every end-to-end metric by name with its
// unit (or, with --trace 1, every per-layer metric), checking that the
// program's outputs are correct:
//
//   - serve-hot: cache-hit compose traffic against the real server
//     handler behind a 127.0.0.1 TCP listener, Zipf-skewed over a
//     working set that fits the cache, with a fixed share of batches.
//   - serve-churn: the same catalog generator on a durable server (WAL
//     store recovered and attached as the catalog logger, as mapcompd
//     -data-dir wires it); one cluster re-registration per fixed number
//     of uniformly drawn composes.
//   - edit-fig3: the paper's §4.2 schema-editing study ("no keys",
//     schema size 30), the quantity Figure 3 plots; no server.
//
// Usage (from the repository root; perfbench/run.sh builds and runs):
//
//	perfbench --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// The process started by run.sh is the orchestrator: it generates the
// inputs from --seed, computes the expected outputs (the oracle) in its
// own process, then runs each repetition of the workload in a fresh
// child process — the core memo caches, the algebra interner and the
// obs histograms are process-global, so sharing a process between
// repetitions would let one warm the next. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md lists the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Workload names, as later changes refer to them.
const (
	wlHot   = "serve-hot"
	wlChurn = "serve-churn"
	wlEdit  = "edit-fig3"
)

// buildDir is where run.sh builds the binary and where runs keep their
// scratch files (task files, WAL directories, spans); it is ignored by
// git.
const buildDir = ".bench_build"

// clientCount is the closed-loop client count of the serving
// workloads: one keep-alive connection per client, never more than the
// machine's CPUs, capped at 2 so figures stay comparable across hosts.
func clientCount() int {
	return max(1, min(2, runtime.NumCPU()))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-hot, serve-churn or edit-fig3")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run, split over the repetitions")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from traced repetitions")
	child := flag.String("child", "", "internal: run one repetition from this plan file")
	writePins := flag.Bool("write-pins", false, "recompute perfbench/pins_fig3.json from the program and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case *writePins:
		err = writeFig3Pins()
	default:
		err = orchestrate(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// plan is what the orchestrator hands each child: the workload, the
// generated input files, the expected outputs and the repetition's
// settings. Children write a repResult to ResultPath.
type plan struct {
	Workload   string
	Seed       int64
	Dir        string // per-run scratch directory
	Files      [][2]string
	Clusters   [][]string // schema names per cluster
	Pairs      []pairRef
	Working    []int   // serve-hot working set, hottest first
	EditSeeds  []int64 // edit-fig3 seed set
	Pins       map[int64][2]int
	Clients    int
	WindowSec  float64
	Traced     bool
	Rep        int
	Slice      int // which slice of the work: a request stream, or editSeedsPer seeds of EditSeeds
	ResultPath string
}

// repResult is one repetition's raw measurements. Samples are
// nanosecond latencies (or other per-event values) pooled across
// repetitions; Sums are additive totals; Values are per-repetition
// figures the orchestrator takes the median of.
type repResult struct {
	Traced      bool
	Slice       int
	SetupNS     int64
	Attempted   int64
	Failed      int64
	Errors      []string
	Samples     map[string][]int64
	Sums        map[string]float64
	Values      map[string]float64
	FirstOpNS   int64 // wall clock of the first timed operation
	BenchOnlyNS int64 // child time spent on benchmark bookkeeping before set-up
}

func newRepResult() *repResult {
	return &repResult{Samples: map[string][]int64{}, Sums: map[string]float64{}, Values: map[string]float64{}}
}

func orchestrate(o options) error {
	if o.workload != wlHot && o.workload != wlChurn && o.workload != wlEdit {
		return fmt.Errorf("unknown --workload %q (want %s, %s or %s)", o.workload, wlHot, wlChurn, wlEdit)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, buildDir, fmt.Sprintf("run-%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	p := &plan{Workload: o.workload, Seed: o.seed, Dir: dir, Clients: clientCount()}
	if o.workload == wlEdit {
		if err := planEdit(p); err != nil {
			return err
		}
	} else if err := planServe(p); err != nil {
		return err
	}
	// An interrupted run stops its child and still removes its scratch
	// directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reps, err := runReps(ctx, p, o)
	if err != nil {
		return err
	}
	return report(o, p, reps)
}

// repetition is one child process: traced or not, and which slice of
// the run's work it does.
type repetition struct {
	traced bool
	slice  int
}

// serveSlices is the number of request-stream slices of a serving run.
const serveSlices = 4

// schedule lays out a run's repetitions. The work is split into slices:
// request streams over equal windows (serving) or fixed runs of the seed
// set (edit-fig3, first slice drawn from the seed). A serving run does
// each slice once and the report pools every repetition. An untraced
// edit-fig3 run makes two passes over its slices, and the report keeps
// the faster execution of every edit and every run (fasterOfTwo). A
// traced run follows every untraced repetition with a traced one of the
// same slice, so the tracing overhead is a same-run difference.
func schedule(p *plan, o options) []repetition {
	n, first := serveSlices, 0
	if p.Workload == wlEdit {
		n = (len(p.EditSeeds) + editSeedsPer - 1) / editSeedsPer
		first = int(uint64(p.Seed) % uint64(n))
	}
	var out []repetition
	for i := 0; i < n; i++ {
		slice := (first + i) % n
		out = append(out, repetition{slice: slice})
		if o.trace {
			out = append(out, repetition{traced: true, slice: slice})
		}
	}
	if p.Workload != wlEdit {
		p.WindowSec = o.seconds / float64(len(out))
	} else if !o.trace {
		out = append(out, out...)
	}
	return out
}

func runReps(ctx context.Context, p *plan, o options) ([]*repResult, error) {
	var out []*repResult
	for i, rep := range schedule(p, o) {
		p.Traced, p.Rep, p.Slice = rep.traced, i, rep.slice
		p.ResultPath = filepath.Join(p.Dir, fmt.Sprintf("rep-%d.json", i))
		r, err := spawn(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// spawn runs one repetition in a fresh process and waits for it.
func spawn(ctx context.Context, p *plan) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	planPath := filepath.Join(p.Dir, "plan-"+strconv.Itoa(p.Rep)+".json")
	if err := writeJSON(planPath, p); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", planPath)
	// The child dies with the orchestrator, however that ends. The
	// signal follows the thread that started the child, so the thread
	// stays locked until the child has exited.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = os.Stderr // keep stdout for the result line
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r repResult
	b, err := os.ReadFile(p.ResultPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	r.SetupNS = r.FirstOpNS - spawned.UnixNano() - r.BenchOnlyNS
	r.Slice = p.Slice
	return &r, nil
}

func runChild(planPath string) error {
	var p plan
	b, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	var r *repResult
	if p.Workload == wlEdit {
		r, err = runEditRep(&p)
	} else {
		r, err = runServeRep(&p)
	}
	if err != nil {
		return err
	}
	return writeJSON(p.ResultPath, r)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
