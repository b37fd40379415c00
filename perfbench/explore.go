package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/programs"
	"repro/internal/tso"
)

// exploreWorkers is the worker count of every explore-large job: the
// two CPUs of the machine the benchmark was sized on.
const exploreWorkers = 2

// exploreJob is one exhaustive exploration of explore-large, with the
// verdict it must reach.
type exploreJob struct {
	name  string
	build func() *tso.Machine
	opts  litmus.Options
	// violates is the known verdict. states, when non-zero, is the
	// exact state count an unreduced run must reach.
	violates bool
	states   int
	// short marks a job of at most about a second, which a pass runs
	// shortRepeats times.
	short bool
}

// shortRepeats is how many times a pass runs each short job.
const shortRepeats = 3

// Exact state counts of the unreduced jobs. Unreduced counts do not
// depend on the worker count or on the visited-set representation, so
// the hashed and the collapsed peterson3-mfence runs must both hit the
// first one.
const (
	peterson3MfenceStates   = 1_445_429
	bakery2NofencePSOStates = 51_085
	bakery2MfencePSOStates  = 3_393
	bakery2LmfencePSOStates = 10_447
)

// spillBudget is the visited-set budget of the spill job: a fraction
// of what the run keeps resident without one, so cold stripes spill
// many times.
const spillBudget = 2 << 20

// exploreJobs builds the fixed job set: every engine configuration a
// user can pick, on the programs where each takes seconds. Building it
// is explore-large's set-up.
func exploreJobs() []exploreJob {
	mutex := []litmus.Property{litmus.MutualExclusion}
	p3m := programs.PetersonN(3, programs.DekkerMfence)
	p3n := programs.PetersonN(3, programs.DekkerNoFence)
	b3m := programs.BakeryN(3, programs.DekkerMfence)
	b3n := programs.BakeryN(3, programs.DekkerNoFence)
	// The cmd/litmus -nproc path: symmetry and POR, stopping at the
	// first violation on the unfenced rows.
	symPOR := func(sp *programs.SymProtocol, violates bool) exploreJob {
		return exploreJob{
			name:  sp.Name + "/sym+por",
			build: sp.Build,
			opts: litmus.Options{Properties: mutex, Workers: exploreWorkers, Reduction: true,
				Symmetry: sp.Sym, StopOnViolation: violates, MaxStates: 64_000_000},
			violates: violates,
			short:    violates,
		}
	}
	jobs := []exploreJob{
		symPOR(p3m, false),
		symPOR(b3m, false),
		symPOR(p3n, true),
		symPOR(b3n, true),
		{name: b3m.Name + "/por", build: b3m.Build, short: true,
			opts: litmus.Options{Properties: mutex, Workers: exploreWorkers, Reduction: true}},
		{name: p3m.Name + "/hashed", build: p3m.Build,
			opts:   litmus.Options{Properties: mutex, Workers: exploreWorkers},
			states: peterson3MfenceStates},
		{name: p3m.Name + "/collapse", build: p3m.Build,
			opts:   litmus.Options{Properties: mutex, Workers: exploreWorkers, Collapse: true},
			states: peterson3MfenceStates},
		{name: p3m.Name + "/por+budget", build: p3m.Build,
			opts: litmus.Options{Properties: mutex, Workers: exploreWorkers, Reduction: true,
				Collapse: true, MemBudget: spillBudget}},
	}
	// The bakery pair under PSO, where mfence no longer suffices.
	for _, c := range []struct {
		v        programs.DekkerVariant
		violates bool
		states   int
	}{
		{programs.DekkerNoFence, true, bakery2NofencePSOStates},
		{programs.DekkerMfence, true, bakery2MfencePSOStates},
		{programs.DekkerLmfenceMirrored, false, bakery2LmfencePSOStates},
	} {
		jobs = append(jobs, exploreJob{
			name:     "bakery2-" + c.v.String() + "/pso",
			build:    bakeryPairBuild(c.v),
			opts:     litmus.Options{Properties: mutex, Workers: exploreWorkers, Model: arch.PSO},
			violates: c.violates,
			states:   c.states,
			short:    true,
		})
	}
	return jobs
}

// bakeryPairBuild is the two-thread bakery on the machine the classic
// protocol tests use.
func bakeryPairBuild(v programs.DekkerVariant) func() *tso.Machine {
	p0, p1 := programs.BakeryPair(v)
	cfg := arch.DefaultConfig()
	cfg.Procs = 2
	cfg.MemWords = 16
	cfg.StoreBufferDepth = 4
	return func() *tso.Machine { return tso.NewMachine(cfg, p0, p1) }
}

// passOrder is the job sequence of one pass: each long job once and
// each short job shortRepeats times, the short jobs' rounds spread
// evenly between the long jobs. Host speed drifts over seconds, and a
// single run of a sub-second job read up to 30% apart between runs of
// the benchmark.
func passOrder(jobs []exploreJob) []int {
	var short, long []int
	for i, j := range jobs {
		if j.short {
			short = append(short, i)
		} else {
			long = append(long, i)
		}
	}
	var seq []int
	for r := 0; r < shortRepeats; r++ {
		seq = append(seq, short...)
		seq = append(seq, long[r*len(long)/shortRepeats:(r+1)*len(long)/shortRepeats]...)
	}
	return seq
}

// exploreCall is one finished job.
type exploreCall struct {
	job        *exploreJob
	res        litmus.Result
	dur        time.Duration
	allocBytes uint64
	traced     bool
}

func runExploreLarge(e *env, traced bool) (*outcome, error) {
	out := &outcome{}
	var jobs []exploreJob
	var err error
	out.setup, err = timeSetup(func() error {
		jobs = exploreJobs()
		for _, j := range jobs {
			j.build()
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	var calls []exploreCall
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

	// A pass runs passOrder's sequence rotated to start at a position
	// the seed picks. Jobs run back to back on one heap, as in one
	// long-lived process, so a job's speed and the peak RSS depend on
	// which job ran before it; rotation keeps every job's predecessor
	// the same for every seed but one.
	order := passOrder(jobs)
	first := rand.New(rand.NewSource(e.seed)).Intn(len(order))
	phaseFn := func(tr *tracer, d time.Duration) (phase, error) {
		collect()
		var ph phase
		jobMs := make(map[*exploreJob][]float64)
		cpu0 := selfCPU()
		start := time.Now()
		runPasses(d, func() {
			for k := range order {
				j := &jobs[order[(first+k)%len(order)]]
				c := exploreCall{job: j, traced: tr.enabled}
				metrics.Read(allocs)
				a0 := allocs[0].Value.Uint64()
				c.dur = tr.timed("litmus.explore", int64(len(calls)+1), 0, func() {
					c.res = litmus.Explore(j.build, j.opts)
				})
				metrics.Read(allocs)
				c.allocBytes = allocs[0].Value.Uint64() - a0
				calls = append(calls, c)
				fmt.Fprintf(e.log, "explore-large: %-28s %8.3fs %9d states %6.0f B/state\n",
					j.name, c.dur.Seconds(), c.res.States, float64(c.allocBytes)/float64(c.res.States))
				ph.attempted++
				ph.completed++
				jobMs[j] = append(jobMs[j], float64(c.dur)/float64(time.Millisecond))
			}
		})
		// A job's time to verdict is the median of its runs in the
		// phase, so the percentiles over the jobs rest on several runs
		// of each short job, spread over the phase.
		for i := range jobs {
			ph.latMs = append(ph.latMs, median(jobMs[&jobs[i]]))
		}
		ph.wall = time.Since(start)
		ph.cpu = selfCPU() - cpu0
		ph.cost = ph.wall.Seconds() / float64(ph.completed)
		rss, err := peakRSSMB("self")
		ph.rssMB = rss
		return ph, err
	}
	tr := &tracer{enabled: traced}
	var overhead float64
	out.ph, overhead, err = e.measure(tr, phaseFn)
	if err != nil {
		return nil, err
	}
	if traced {
		out.layers = exploreLayers(calls)
		out.layers["trace.overhead_frac"] = overhead
		probe(out.layers, e.seed)
		if err := tr.write(e.tracePath("explore-large")); err != nil {
			return nil, err
		}
	}
	for _, c := range calls {
		checkExplore(out, c)
	}
	checkExploreSerial(out, calls)
	return out, nil
}

// checkExplore compares one job's result with its known verdict.
func checkExplore(out *outcome, c exploreCall) {
	j, r := c.job, c.res
	switch {
	case r.Truncated:
		out.problem("%s: truncated at %d states", j.name, r.States)
	case (r.Violations > 0) != j.violates:
		out.problem("%s: %d violations, want violating=%v", j.name, r.Violations, j.violates)
	case r.Deadlocks > 0:
		out.problem("%s: %d deadlocks", j.name, r.Deadlocks)
	case j.states != 0 && r.States != j.states:
		out.problem("%s: %d states, want exactly %d", j.name, r.States, j.states)
	case j.opts.MemBudget > 0 && r.Obs.Counters["visited_spill_events"] == 0:
		out.problem("%s: the budget never spilled", j.name)
	}
}

// checkExploreSerial re-runs the PSO jobs, the unreduced ones small
// enough for it, on the serial engine, the reference implementation,
// and compares each with the job's first timed result.
func checkExploreSerial(out *outcome, calls []exploreCall) {
	checked := make(map[*exploreJob]bool)
	for _, c := range calls {
		j := c.job
		if j.opts.Model != arch.PSO || checked[j] {
			continue
		}
		checked[j] = true
		ser := litmus.ExploreSerial(j.build, litmus.Options{Properties: j.opts.Properties, Model: j.opts.Model})
		par := c.res
		if ser.States != par.States || (ser.Violations > 0) != (par.Violations > 0) || !sameOutcomes(ser.Outcomes, par.Outcomes) {
			out.problem("%s: parallel (%d states, %d outcomes) disagrees with ExploreSerial (%d states, %d outcomes)",
				j.name, par.States, len(par.Outcomes), ser.States, len(ser.Outcomes))
		}
	}
}

func sameOutcomes(a, b map[litmus.Outcome]int) bool {
	if len(a) != len(b) {
		return false
	}
	for o, n := range a {
		if b[o] != n {
			return false
		}
	}
	return true
}

// exploreLayers derives the litmus.* layer numbers from the traced
// calls.
func exploreLayers(calls []exploreCall) map[string]float64 {
	l := make(map[string]float64)
	var states, ample, reducedStates, tries, wins, alloc uint64
	var busy time.Duration
	var small []float64
	for _, c := range calls {
		if !c.traced {
			continue
		}
		r := c.res
		l["litmus.explore_calls"]++
		busy += c.dur
		states += uint64(r.States)
		alloc += c.allocBytes
		tries += r.Obs.Counters["claim_tries"]
		wins += r.Obs.Counters["claim_wins"]
		if r.Obs.Gauges["reduction"] == 1 {
			ample += r.Obs.Counters["por_ample_states"]
			reducedStates += uint64(r.States)
		}
		if v := r.Obs.Gauges["peak_visited_bytes"]; v > l["litmus.peak_visited_bytes"] {
			l["litmus.peak_visited_bytes"] = v
		}
		if r.States <= smallCallStates {
			small = append(small, float64(c.dur)/float64(time.Microsecond))
		}
	}
	l["litmus.explore_s"] = busy.Seconds()
	l["litmus.states"] = float64(states)
	if busy > 0 {
		l["litmus.states_per_s"] = float64(states) / busy.Seconds()
	}
	if states > 0 {
		l["litmus.alloc_bytes_per_state"] = float64(alloc) / float64(states)
	}
	if tries > 0 {
		l["litmus.claim_hit_rate"] = float64(tries-wins) / float64(tries)
	}
	if reducedStates > 0 {
		l["litmus.por_ample_frac"] = float64(ample) / float64(reducedStates)
	}
	l["litmus.small_call_us_p50"] = median(small)
	return l
}

// smallCallStates is the state count at or below which an Explore call
// counts as small: its cost is per-call overhead, not per-state work.
const smallCallStates = 1000

// tracePath is where a traced run writes its spans.
func (e *env) tracePath(workload string) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.json", e.work, workload, e.seed)
}
