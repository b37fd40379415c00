// Command perfbench is the repository's end-to-end benchmark. It drives
// the checking stack from outside: it imports the internal packages and
// times calls to their public functions, and it runs the litmusd binary
// through its spool directory. Each run measures one workload, checks
// every verdict against an independent reference after the timed phase,
// and prints one JSON result as its last line of output.
//
//	go run . --workload explore-large --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the run prints per-layer numbers instead: it measures
// an untraced half and a traced half of the timed phase, reports the
// layers from the traced half, and reports the difference between the
// halves as trace.overhead_frac. README.md describes the workloads and
// what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// root is the repository checkout (examples/ and the built litmusd
	// are found relative to it); work is a scratch directory inside it.
	root, work string
	litmusd    string
	log        io.Writer
}

// phase is what one timed phase of a workload measured.
type phase struct {
	attempted, completed int
	// latMs holds each completed job's time to verdict.
	latMs []float64
	// wall is the denominator of jobs_per_s: the phase's wall time for
	// a closed loop, first due time to last verdict for an open loop.
	wall  time.Duration
	cpu   time.Duration // CPU of the working process during the phase
	rssMB float64       // its peak RSS
	// cost is the figure trace.overhead_frac compares between the
	// untraced and the traced half: lower is better.
	cost float64
}

// outcome is one workload run.
type outcome struct {
	setup []time.Duration
	ph    phase
	// failed counts jobs that errored, truncated, landed in failed/, or
	// whose verdict disagreed with the reference; problems says why.
	failed   int
	problems []string
	layers   map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run prints, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p95", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints. Every run prints all
// of them; a layer the workload does not reach reads 0 (README.md has
// the table of which workload measures which).
var perLayer = []struct{ name, unit string }{
	{"litmuslang.compile_us", "us"},
	{"litmus.explore_calls", "count"},
	{"litmus.explore_s", "s"},
	{"litmus.states", "count"},
	{"litmus.states_per_s", "states/s"},
	{"litmus.alloc_bytes_per_state", "B/state"},
	{"litmus.peak_visited_bytes", "B"},
	{"litmus.claim_hit_rate", "ratio"},
	{"litmus.por_ample_frac", "ratio"},
	{"litmus.small_call_us_p50", "us"},
	{"tso.copyfrom_ns", "ns"},
	{"tso.fingerprint_ns", "ns"},
	{"tso.fingerprint_bytes", "B"},
	{"tso.collapse_ns", "ns"},
	{"tso.exec_step_ns", "ns"},
	{"tso.drain_step_ns", "ns"},
	{"tso.splice_us", "us"},
	{"mesi.copyfrom_ns", "ns"},
	{"mesi.fingerprint_ns", "ns"},
	{"storebuf.copyfrom_ns", "ns"},
	{"storebuf.fingerprint_ns", "ns"},
	{"synth.busy_ms_per_job", "ms"},
	{"synth.exact_checks_per_job", "count"},
	{"synth.bounded_checks_per_job", "count"},
	{"synth.screen_hit_rate", "ratio"},
	{"synth.states_per_job", "count"},
	{"synth.rounds_per_job", "count"},
	{"synth.pruned_sites_per_job", "count"},
	{"litmusd.queue_ms_p50", "ms"},
	{"litmusd.run_ms_p50", "ms"},
	{"litmusd.checkpoint_writes", "count"},
	{"litmusd.checkpoint_bytes", "B"},
	{"litmusd.jobs_retried", "count"},
	{"gen.late_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(e *env, traced bool) (*outcome, error){
	"explore-large":  runExploreLarge,
	"synth-corpus":   runSynthCorpus,
	"litmusd-stream": runLitmusdStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: explore-large, synth-corpus or litmusd-stream")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	litmusd := fs.String("litmusd", filepath.Join(".bench_build", "perfbench", "bin", "litmusd"), "litmusd binary for litmusd-stream")
	record := fs.Bool("record-costs", false, "rewrite "+costFile+" from the control synthesizer and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordCosts("."); err != nil {
			fmt.Fprintln(stderr, "perfbench: recording costs:", err)
			return 2
		}
		return 0
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload explore-large|synth-corpus|litmusd-stream, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    root,
		work:    *work,
		litmusd: *litmusd,
		log:     stderr,
	}
	traced := *traceFlag == 1
	warmUp()
	out, err := runner(e, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	res := report(*name, out, traced, stdout)
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: verdict check:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable metric lines and builds the result.
func report(name string, o *outcome, traced bool, w io.Writer) result {
	ph := o.ph
	res := result{
		Correct:   o.failed == 0 && ph.completed > 0,
		Attempted: ph.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	fmt.Fprintf(w, "%s: %d attempted, %d completed, failed_frac %.4f ratio\n",
		name, ph.attempted, ph.completed, float64(o.failed)/float64(res.Attempted))
	if traced {
		for _, m := range perLayer {
			v := o.layers[m.name]
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Fprintf(w, "%s: %-30s %14.6g %s\n", name, m.name, v, m.unit)
		}
		return res
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	p50, ok50 := percentile(ph.latMs, 50)
	p95, ok95 := percentile(ph.latMs, 95)
	done := float64(ph.completed)
	vals := map[string]float64{
		"setup_s":        median(setup),
		"jobs_per_s":     done / ph.wall.Seconds(),
		"verdict_ms_p50": p50,
		"verdict_ms_p95": p95,
		"cpu_ms_per_job": float64(ph.cpu) / float64(time.Millisecond) / done,
		"peak_rss_mb":    ph.rssMB,
	}
	for _, m := range endToEnd {
		v := vals[m.name]
		res.Metrics[m.name] = metric{v, m.unit}
		note := ""
		if (m.name == "verdict_ms_p50" && !ok50) || (m.name == "verdict_ms_p95" && !ok95) {
			note = fmt.Sprintf("  (n=%d: fewer than %d samples beyond this rank)", len(ph.latMs), minBeyond)
		}
		fmt.Fprintf(w, "%s: %-16s %14.6g %s%s\n", name, m.name, v, m.unit, note)
	}
	return res
}

// setupRepeats is how many set-up samples a run takes; setup_s is
// their median.
const setupRepeats = 21

// setupSampleMin is the least time one set-up sample measures. A
// set-up shorter than that repeats within the sample, and the sample is
// the mean, so a set-up of a hundred microseconds is not read at the
// resolution of the scheduler's noise.
const setupSampleMin = 20 * time.Millisecond

// timeSetup takes setupRepeats samples of f's duration, each from a
// collected heap. undo, if not nil, runs untimed before every call of f
// but the first, to release what the previous call set up.
func timeSetup(f func() error, undo func()) ([]time.Duration, error) {
	var ds []time.Duration
	calls := 0
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		var spent time.Duration
		n := 0
		for spent < setupSampleMin {
			if calls > 0 && undo != nil {
				undo()
			}
			t := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			spent += time.Since(t)
			n++
			calls++
		}
		ds = append(ds, spent/time.Duration(n))
	}
	return ds, nil
}

// measure runs a workload's timed phase. Untraced, the phase runs for
// the whole run length with a disabled tracer. Traced, an untraced half
// runs first and a traced half second; the traced half is returned and
// overhead compares the two halves' cost.
func (e *env) measure(tr *tracer, phaseFn func(tr *tracer, d time.Duration) (phase, error)) (ph phase, overhead float64, err error) {
	if !tr.enabled {
		ph, err = phaseFn(tr, e.seconds)
		return ph, 0, err
	}
	off := &tracer{}
	a, err := phaseFn(off, e.seconds/2)
	if err != nil {
		return ph, 0, err
	}
	b, err := phaseFn(tr, e.seconds/2)
	if err != nil {
		return ph, 0, err
	}
	b.attempted += a.attempted
	if a.cost > 0 {
		overhead = b.cost/a.cost - 1
	}
	fmt.Fprintf(e.log, "untraced half: cost %.6g; traced half: cost %.6g\n", a.cost, b.cost)
	return b, overhead, nil
}

// warmUpTime is how long every CPU spins before a run starts: the
// first second of a process on the virtual machines the benchmark was
// sized on runs at about half speed.
const warmUpTime = 2 * time.Second

// warmUp keeps every CPU busy for warmUpTime.
func warmUp() {
	var wg sync.WaitGroup
	deadline := time.Now().Add(warmUpTime)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

// spinSink keeps warmUp's loop from being optimized away.
var spinSink atomic.Uint64

// runPasses runs pass once, then again while another pass of the mean
// length so far still fits in d. A phase thus always measures whole
// passes over a fixed job set, and its throughput never depends on
// where a cut fell in the job mix.
func runPasses(d time.Duration, pass func()) {
	start := time.Now()
	for n := 1; ; n++ {
		pass()
		el := time.Since(start)
		if el+el/time.Duration(n) > d {
			return
		}
	}
}

// collect returns a heap with no garbage left from set-up and restarts
// the peak-RSS gauge, so the timed phase measures itself alone.
func collect() {
	runtime.GC()
	// Without the reset the peak includes set-up; that is still a real
	// peak, so a failed reset does not stop the run.
	_ = resetPeakRSS()
}

// errNoJobs is returned when a timed phase completed nothing.
var errNoJobs = errors.New("the timed phase completed no job")
