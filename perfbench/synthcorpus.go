package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
	"repro/internal/synth"
	"repro/internal/tso"
)

const (
	// corpusScenarios is the size of the corpus: the first scenarios
	// with a property of fencesynth -corpus's default corpus (generator
	// seeds from 0). One pass over it takes 5.5-11 s on the two-CPU
	// machine the benchmark was sized on, so a run makes several passes
	// and its peak RSS is the highest of several passes' peaks.
	corpusScenarios = 200
	// corpusSources bounds the generator seeds scanned for them.
	corpusSources = 2 * corpusScenarios
	// corpusWorkers is how many scenarios run at once: harness.RunCorpus
	// runs GOMAXPROCS of them, two on the machine the benchmark was
	// sized on.
	corpusWorkers = 2
	// corpusMaxStates is fencesynth -corpus's per-exploration budget.
	corpusMaxStates = 200_000
	// costFile, relative to the repository root, records each corpus
	// scenario's optimal repair cost.
	costFile = "perfbench/testdata/synth_costs.json"
)

// corpusSynthOptions are fencesynth -corpus's defaults: both
// accelerators on.
func corpusSynthOptions() synth.Options {
	return synth.Options{MaxStates: corpusMaxStates, Prefilter: true, ReorderBound: 2}
}

// scenario is one compiled corpus entry.
type scenario struct {
	seed int64
	c    *litmuslang.Compiled
	prob synth.Problem
}

// repair is one scenario's trip through the timed pipeline.
type repair struct {
	sc        *scenario
	res       *synth.Result
	err       error
	placement synth.Placement
	verify    litmus.Result
	synthDur  time.Duration
	verifyDur time.Duration
	lat       time.Duration
	traced    bool
}

// corpusInputs generates the sources the corpus is drawn from: source
// i is generator seed i.
func corpusInputs() []string {
	srcs := make([]string, corpusSources)
	for i := range srcs {
		srcs[i] = litmusgen.Generate(int64(i), litmusgen.CorpusParams())
	}
	return srcs
}

// compileCorpus compiles sources until corpusScenarios of them declare
// a property, recording each compile as a span, and returns those.
// Property-free sources are skipped, as harness.RunCorpus skips them.
func compileCorpus(srcs []string, tr *tracer) ([]*scenario, error) {
	var out []*scenario
	for i, src := range srcs {
		if len(out) == corpusScenarios {
			return out, nil
		}
		var c *litmuslang.Compiled
		var prob synth.Problem
		var err error
		tr.timed("litmuslang.compile", int64(i), 0, func() {
			c, err = litmuslang.CompileSource(src)
			if err == nil && c.HasProperty() {
				prob, err = c.Problem()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("scenario seed %d: %w", i, err)
		}
		if c.HasProperty() {
			out = append(out, &scenario{seed: int64(i), c: c, prob: prob})
		}
	}
	return nil, fmt.Errorf("only %d of %d sources declare a property", len(out), len(srcs))
}

func runSynthCorpus(e *env, traced bool) (*outcome, error) {
	out := &outcome{}
	srcs := corpusInputs()
	tr := &tracer{enabled: traced}
	var corpus []*scenario
	setup, err := timeSetup(func() error {
		c, err := compileCorpus(srcs, &tracer{})
		corpus = c
		return err
	}, nil)
	out.setup = setup
	if err != nil {
		return nil, err
	}
	if traced {
		// One more compile, untimed, records the compile spans.
		if corpus, err = compileCorpus(srcs, tr); err != nil {
			return nil, err
		}
	}
	costs, err := loadCosts(filepath.Join(e.root, costFile))
	if err != nil {
		return nil, err
	}

	opts := corpusSynthOptions()
	var repairs []*repair
	var mu sync.Mutex
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var phaseAlloc uint64

	// A pass repairs the corpus in generator order from a seeded start,
	// wrapping round, corpusWorkers scenarios at a time. Every seed thus
	// runs the same neighbours side by side: which heavy scenarios
	// overlap sets the peak heap, and on a 600-scenario corpus a seeded
	// shuffle made peak RSS vary from 427 to 600 MB.
	start := rand.New(rand.NewSource(e.seed)).Intn(len(corpus))
	order := make([]int, len(corpus))
	for i := range order {
		order[i] = (start + i) % len(corpus)
	}
	phaseFn := func(ptr *tracer, d time.Duration) (phase, error) {
		collect()
		var ph phase
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		cpu0 := selfCPU()
		start := time.Now()
		runPasses(d, func() {
			// Span job IDs continue from the repairs of earlier passes.
			base := int64(len(repairs))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < corpusWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if i >= len(order) {
							return
						}
						r := repairOne(ptr, corpus[order[i]], base+int64(i)+1, opts)
						mu.Lock()
						repairs = append(repairs, r)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
		})
		ph.wall = time.Since(start)
		ph.cpu = selfCPU() - cpu0
		var err error
		if ph.rssMB, err = peakRSSMB("self"); err != nil {
			return ph, err
		}
		metrics.Read(allocs)
		if ptr.enabled {
			phaseAlloc = allocs[0].Value.Uint64() - a0
		}
		for _, r := range repairs {
			if r.traced != ptr.enabled {
				continue
			}
			ph.attempted++
			if r.err == nil {
				ph.completed++
				ph.latMs = append(ph.latMs, float64(r.lat)/float64(time.Millisecond))
			}
		}
		if ph.completed == 0 {
			return ph, errNoJobs
		}
		ph.cost = ph.wall.Seconds() / float64(ph.completed)
		return ph, nil
	}
	var overhead float64
	out.ph, overhead, err = e.measure(tr, phaseFn)
	if err != nil {
		return nil, err
	}
	for _, r := range repairs {
		if r.err != nil {
			out.problem("scenario seed %d: %v", r.sc.seed, r.err)
		}
	}
	if traced {
		out.layers = synthLayers(tr, repairs, phaseAlloc)
		out.layers["trace.overhead_frac"] = overhead
		probe(out.layers, e.seed)
		if err := tr.write(e.tracePath("synth-corpus")); err != nil {
			return nil, err
		}
	}
	checkRepairs(out, repairs, costs)
	return out, nil
}

// repairOne runs fencesynth -corpus's pipeline on one compiled
// scenario: synthesize, splice the optimal placement in, and re-verify
// the spliced programs on the reduced engine.
func repairOne(tr *tracer, sc *scenario, job int64, opts synth.Options) *repair {
	r := &repair{sc: sc, traced: tr.enabled}
	root := tr.id()
	start := time.Now()
	defer func() {
		end := time.Now()
		r.lat = end.Sub(start)
		tr.add(span{ID: root, Job: job, Name: "scenario", Start: start, End: end})
	}()
	r.synthDur = tr.timed("synth.synthesize", job, root, func() {
		r.res, r.err = synth.Synthesize(sc.prob, opts)
	})
	if r.err != nil {
		return r
	}
	if r.res.Unrepairable {
		return r
	}
	r.placement = r.res.Optimal.Placement
	var progs []*tso.Program
	tr.timed("tso.splice", job, root, func() {
		progs = r.placement.Apply(sc.prob.Programs, opts.Scratch)
	})
	cfg := sc.prob.Config
	build := func() *tso.Machine { return tso.NewMachine(cfg, progs...) }
	r.verifyDur = tr.timed("litmus.explore", job, root, func() {
		r.verify = litmus.Explore(build, litmus.Options{
			Properties: []litmus.Property{sc.prob.Property},
			MaxStates:  opts.MaxStates,
			Reduction:  true,
			Model:      cfg.Model,
		})
	})
	switch v := r.verify; {
	case v.Truncated:
		r.err = fmt.Errorf("re-verification truncated after %d states", v.States)
	case v.Violations > 0 || v.Deadlocks > 0:
		r.err = fmt.Errorf("spliced repair %v refuted (violations=%d deadlocks=%d)", r.placement, v.Violations, v.Deadlocks)
	}
	return r
}

// checkRepairs re-derives every repaired scenario's verdict on the
// serial engine, unreduced, outside the timed phase:
//   - the scenario as generated violates iff the repair is not empty;
//   - it is unrepairable iff it violates under sequential consistency;
//   - the spliced repair is safe;
//   - the optimal cost is the recorded one.
func checkRepairs(out *outcome, repairs []*repair, costs map[string]float64) {
	seen := make(map[*scenario]bool)
	var todo []*repair
	for _, r := range repairs {
		if r.err == nil && !seen[r.sc] {
			seen[r.sc] = true
			todo = append(todo, r)
		}
	}
	problems := make([][]string, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < corpusWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				problems[i] = checkRepair(todo[i], costs)
			}
		}()
	}
	wg.Wait()
	for _, ps := range problems {
		for _, p := range ps {
			out.problem("%s", p)
		}
	}
}

func checkRepair(r *repair, costs map[string]float64) []string {
	sc := r.sc
	var ps []string
	bad := func(format string, args ...any) {
		ps = append(ps, fmt.Sprintf("scenario seed %d: ", sc.seed)+fmt.Sprintf(format, args...))
	}
	serial := func(progs []*tso.Program, scMode bool) litmus.Result {
		cfg := sc.prob.Config
		return litmus.ExploreSerial(func() *tso.Machine { return tso.NewMachine(cfg, progs...) }, litmus.Options{
			Properties:            []litmus.Property{sc.prob.Property},
			MaxStates:             corpusMaxStates,
			SequentialConsistency: scMode,
			Model:                 cfg.Model,
		})
	}
	tsoRes := serial(sc.prob.Programs, false)
	scRes := serial(sc.prob.Programs, true)
	if tsoRes.Truncated || scRes.Truncated {
		bad("reference run truncated")
		return ps
	}
	if r.res.Unrepairable != (scRes.Violations > 0) {
		bad("unrepairable=%v but violates under SC=%v", r.res.Unrepairable, scRes.Violations > 0)
	}
	if r.res.Unrepairable {
		return ps
	}
	if safe := r.placement.Len() == 0; safe != (tsoRes.Violations == 0) {
		bad("already-safe=%v but the generated program violates=%v", safe, tsoRes.Violations > 0)
	}
	spliced := serial(r.placement.Apply(sc.prob.Programs, 0), false)
	if spliced.Truncated || spliced.Violations > 0 || spliced.Deadlocks > 0 {
		bad("spliced repair %v: violations=%d deadlocks=%d truncated=%v",
			r.placement, spliced.Violations, spliced.Deadlocks, spliced.Truncated)
	}
	if want, ok := costs[strconv.FormatInt(sc.seed, 10)]; !ok || want != r.res.Optimal.Cost {
		bad("optimal cost %g, recorded %g (recorded: %v)", r.res.Optimal.Cost, want, ok)
	}
	return ps
}

// recordCosts writes costFile: every corpus scenario's optimal repair
// cost, found by the plain CEGAR loop with both accelerators off, so
// the timed pipeline is checked against an independent search.
func recordCosts(root string) error {
	corpus, err := compileCorpus(corpusInputs(), &tracer{})
	if err != nil {
		return err
	}
	results := make([]*synth.Result, len(corpus))
	errs := make([]error, len(corpus))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < corpusWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(corpus) {
					return
				}
				results[i], errs[i] = synth.Synthesize(corpus[i].prob, synth.Options{MaxStates: corpusMaxStates})
			}
		}()
	}
	wg.Wait()
	costs := make(map[string]float64)
	for i, r := range results {
		if errs[i] != nil {
			return fmt.Errorf("scenario seed %d: %w", corpus[i].seed, errs[i])
		}
		if !r.Unrepairable {
			costs[strconv.FormatInt(corpus[i].seed, 10)] = r.Optimal.Cost
		}
	}
	data, err := json.MarshalIndent(costs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, costFile), append(data, '\n'), 0o644)
}

// loadCosts reads the recorded optimal costs: scenario seed → cost of
// the optimal repair (0 for an already-safe scenario).
func loadCosts(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading recorded costs: %w", err)
	}
	var costs map[string]float64
	if err := json.Unmarshal(data, &costs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return costs, nil
}

// synthLayers derives the per-layer numbers of the traced half.
func synthLayers(tr *tracer, repairs []*repair, alloc uint64) map[string]float64 {
	var calls []exploreCall
	var n, exact, bounded, hits, states, rounds, pruned float64
	var busy time.Duration
	var synthStates int
	for _, r := range repairs {
		if !r.traced || r.res == nil {
			continue
		}
		n++
		busy += r.synthDur
		exact += float64(r.res.ExactChecks)
		bounded += float64(r.res.BoundedChecks)
		hits += float64(r.res.BoundedHits)
		states += float64(r.res.StatesExplored)
		rounds += float64(r.res.Rounds)
		pruned += float64(r.res.PrunedSites)
		synthStates += r.res.StatesExplored
		if r.verifyDur > 0 {
			calls = append(calls, exploreCall{res: r.verify, dur: r.verifyDur, traced: true})
		}
	}
	l := exploreLayers(calls)
	// Synthesis explores on the same goroutines as the re-verifies, so
	// allocation is charged to every state explored in the traced half.
	if total := l["litmus.states"] + float64(synthStates); total > 0 {
		l["litmus.alloc_bytes_per_state"] = float64(alloc) / total
	}
	if n > 0 {
		l["synth.busy_ms_per_job"] = float64(busy) / float64(time.Millisecond) / n
		l["synth.exact_checks_per_job"] = exact / n
		l["synth.bounded_checks_per_job"] = bounded / n
		l["synth.states_per_job"] = states / n
		l["synth.rounds_per_job"] = rounds / n
		l["synth.pruned_sites_per_job"] = pruned / n
	}
	if bounded > 0 {
		l["synth.screen_hit_rate"] = hits / bounded
	}
	var compile, splice []float64
	for _, s := range tr.named("litmuslang.compile") {
		compile = append(compile, float64(s.dur())/float64(time.Microsecond))
	}
	for _, s := range tr.named("tso.splice") {
		splice = append(splice, float64(s.dur())/float64(time.Microsecond))
	}
	l["litmuslang.compile_us"] = median(compile)
	l["tso.splice_us"] = median(splice)
	return l
}
