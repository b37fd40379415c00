package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/litmuslang"
)

const (
	// streamRate is the open loop's arrival rate in jobs per second:
	// about a fifth of the daemon's saturation throughput on this mix
	// on the two-CPU machine the benchmark was sized on. The daemon
	// claims a whole scan's jobs before it sleeps again, so every
	// job's wait grows with the batch; at half of saturation that
	// machine's run-to-run speed changes swung the latency percentiles
	// by 40%, and at a third a slow minute still doubled them.
	streamRate = 20
	// streamPool is how many distinct generated scenarios the mix
	// draws from.
	streamPool = 200
	// streamDrain bounds how long the run waits for verdicts of jobs
	// already submitted when the generator stops.
	streamDrain = 60 * time.Second
)

// heavyExamples are the examples whose unreduced exploration passes the
// daemon's default checkpoint cadence (5000 states), so every one of
// them commits checkpoints.
var heavyExamples = []string{"bakery-lmfence", "bakery-nofence"}

// streamSource is one distinct job body.
type streamSource struct {
	name, src string
}

// streamJob is one submission.
type streamJob struct {
	name      string
	src       int // index into the sources
	due       time.Time
	submitted time.Time
	verdict   time.Time // when done/ or failed/ received it
	failed    bool
	traced    bool
	v         jobVerdict
}

// jobVerdict is the part of litmusd's verdict.json the benchmark reads.
type jobVerdict struct {
	States    int            `json:"states"`
	Outcomes  map[string]int `json:"outcomes"`
	Pass      bool           `json:"pass"`
	ElapsedMs int64          `json:"elapsed_ms"`
}

// daemonMetrics is the part of litmusd's /metrics the benchmark reads.
type daemonMetrics struct {
	Completed uint64 `json:"jobs_completed"`
	Retried   uint64 `json:"jobs_retried"`
	Engine    struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	} `json:"engine"`
}

// streamSources reads the job bodies: every example, then streamPool
// generated scenarios (generator seeds 0 up), and returns the indices
// of the heavy examples.
func streamSources(root string) (srcs []streamSource, heavy []int, err error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*.litmus"))
	if err != nil || len(paths) == 0 {
		return nil, nil, fmt.Errorf("no examples/*.litmus under %s", root)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".litmus")
		for _, h := range heavyExamples {
			if name == h {
				heavy = append(heavy, len(srcs))
			}
		}
		srcs = append(srcs, streamSource{name: name, src: string(data)})
	}
	if len(heavy) != len(heavyExamples) {
		return nil, nil, fmt.Errorf("examples/ lacks one of %v", heavyExamples)
	}
	for i := 0; i < streamPool; i++ {
		srcs = append(srcs, streamSource{name: fmt.Sprintf("gen%d", i), src: litmusgen.Generate(int64(i), litmusgen.DefaultParams())})
	}
	return srcs, heavy, nil
}

// streamPlan picks the bodies of n jobs: a tenth heavy examples, and
// the rest split evenly between the examples and the generated
// scenarios, each cycled through in turn. The counts are exact and only
// the order is random, so every seed offers the same load.
func streamPlan(rng *rand.Rand, n, examples int, heavy []int) []int {
	nHeavy := n / 10
	nEx := (n - nHeavy) / 2
	plan := make([]int, 0, n)
	for i := 0; i < nHeavy; i++ {
		plan = append(plan, heavy[i%len(heavy)])
	}
	for i := 0; i < nEx; i++ {
		plan = append(plan, i%examples)
	}
	for i := 0; len(plan) < n; i++ {
		plan = append(plan, examples+i%streamPool)
	}
	rng.Shuffle(n, func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// daemon is one running litmusd.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	addr string
	done chan struct{} // closed once the process has exited
}

// launchDaemon starts litmusd with default flags on a fresh spool
// directory and returns once /healthz answers.
func launchDaemon(bin, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-dir", dir, "-http", "127.0.0.1:0")
	// If the benchmark itself is killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting litmusd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// The log is read to its end so the daemon never blocks on a
		// full pipe; the listen address is its only content used.
		sc := bufio.NewScanner(stderr)
		const marker = "serving /healthz and /metrics on "
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(sc.Text()[i+len(marker):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		return nil, errors.New("litmusd exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("litmusd did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("litmusd /healthz never answered")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, killing it if it has not exited
// within 30s, and returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) metrics() (daemonMetrics, error) {
	var m daemonMetrics
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// watcher reports when litmusd moves a job directory into done/ or
// failed/, via inotify, so detection adds no polling delay.
type watcher struct {
	f      *os.File
	failed int // watch descriptor of failed/
	mu     sync.Mutex
	seen   map[string]time.Time
	fail   map[string]bool
	ended  chan struct{}
}

func watch(doneDir, failedDir string) (*watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	w := &watcher{seen: make(map[string]time.Time), fail: make(map[string]bool), ended: make(chan struct{})}
	if _, err := syscall.InotifyAddWatch(fd, doneDir, syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("watching %s: %w", doneDir, err)
	}
	if w.failed, err = syscall.InotifyAddWatch(fd, failedDir, syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("watching %s: %w", failedDir, err)
	}
	// A non-blocking descriptor goes through the runtime poller, so
	// Close unblocks the reader.
	w.f = os.NewFile(uintptr(fd), "inotify")
	go w.read()
	return w, nil
}

func (w *watcher) read() {
	defer close(w.ended)
	buf := make([]byte, 64<<10)
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			return
		}
		now := time.Now()
		w.mu.Lock()
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
			nameBytes := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+int(ev.Len)]
			name := strings.TrimRight(string(nameBytes), "\x00")
			if _, dup := w.seen[name]; !dup {
				w.seen[name] = now
				w.fail[name] = int(ev.Wd) == w.failed
			}
			off += syscall.SizeofInotifyEvent + int(ev.Len)
		}
		w.mu.Unlock()
	}
}

func (w *watcher) close() {
	w.f.Close()
	<-w.ended
}

// verdictOf returns when the job reached done/ or failed/.
func (w *watcher) verdictOf(name string) (t time.Time, failed, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok = w.seen[name]
	return t, w.fail[name], ok
}

func runLitmusdStream(e *env, traced bool) (*outcome, error) {
	srcs, heavy, err := streamSources(e.root)
	if err != nil {
		return nil, err
	}
	examples := len(srcs) - streamPool
	out := &outcome{}
	// Every launch gets a fresh spool root under runDir, and the run
	// removes them all when it ends.
	runDir := filepath.Join(e.work, "litmusd")
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	var d *daemon
	launches := 0
	out.setup, err = timeSetup(func() error {
		launches++
		var err error
		d, err = launchDaemon(e.litmusd, filepath.Join(runDir, fmt.Sprint(launches)))
		return err
	}, func() { d.stop() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	spool := filepath.Join(d.dir, "spool")
	w, err := watch(filepath.Join(d.dir, "done"), filepath.Join(d.dir, "failed"))
	if err != nil {
		return nil, err
	}
	defer w.close()

	rng := rand.New(rand.NewSource(e.seed))
	var jobs []*streamJob
	var m0, m1 daemonMetrics
	phaseFn := func(tr *tracer, dur time.Duration) (phase, error) {
		var ph phase
		// The schedule is fixed before the first submission: Poisson
		// arrivals at streamRate over dur, conditioned on their expected
		// count, i.e. that many uniformly random due times.
		n := int(streamRate*dur.Seconds() + 0.5)
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64() * float64(dur)
		}
		sort.Float64s(at)
		plan := streamPlan(rng, n, examples, heavy)
		t0 := time.Now().Add(20 * time.Millisecond)
		batch := make([]*streamJob, n)
		for i := range batch {
			batch[i] = &streamJob{
				name:   fmt.Sprintf("j%06d", len(jobs)+i),
				src:    plan[i],
				due:    t0.Add(time.Duration(at[i])),
				traced: tr.enabled,
			}
		}
		if tr.enabled {
			var err error
			if m0, err = d.metrics(); err != nil {
				return ph, err
			}
		}
		cpu0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return ph, err
		}
		for _, j := range batch {
			time.Sleep(time.Until(j.due))
			tmp := filepath.Join(spool, j.name+".tmp")
			if err := os.WriteFile(tmp, []byte(srcs[j.src].src), 0o644); err != nil {
				return ph, err
			}
			// Producers write under a name the daemon ignores and
			// rename into place, so no job is ever claimed half-written.
			if err := os.Rename(tmp, filepath.Join(spool, j.name+".litmus")); err != nil {
				return ph, err
			}
			j.submitted = time.Now()
		}
		jobs = append(jobs, batch...)
		deadline := time.Now().Add(streamDrain)
		for _, j := range batch {
			for {
				var ok bool
				if j.verdict, j.failed, ok = w.verdictOf(j.name); ok || time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		var last time.Time
		for _, j := range batch {
			ph.attempted++
			if j.verdict.IsZero() || j.failed {
				continue
			}
			ph.completed++
			ph.latMs = append(ph.latMs, latencyMs(j.due, j.verdict))
			if j.verdict.After(last) {
				last = j.verdict
			}
		}
		if ph.completed == 0 {
			return ph, errNoJobs
		}
		cpu1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return ph, err
		}
		ph.cpu = cpu1 - cpu0
		ph.wall = last.Sub(batch[0].due)
		ph.cost = median(ph.latMs)
		if ph.rssMB, err = peakRSSMB(fmt.Sprint(d.cmd.Process.Pid)); err != nil {
			return ph, err
		}
		if tr.enabled {
			if m1, err = d.metrics(); err != nil {
				return ph, err
			}
		}
		return ph, nil
	}
	tr := &tracer{enabled: traced}
	var overhead float64
	out.ph, overhead, err = e.measure(tr, phaseFn)
	if err != nil {
		return nil, err
	}
	d.stop()
	root := d.dir
	d = nil

	for _, j := range jobs {
		if err := readVerdict(root, j); err != nil {
			out.problem("%s (%s): %v", j.name, srcs[j.src].name, err)
		}
	}
	if traced {
		out.layers = streamLayers(tr, jobs, m0, m1)
		out.layers["trace.overhead_frac"] = overhead
		probe(out.layers, e.seed)
		if err := tr.write(e.tracePath("litmusd-stream")); err != nil {
			return nil, err
		}
	}
	checkStream(out, jobs, srcs)
	return out, nil
}

// readVerdict loads a finished job's verdict.json, or reports why the
// job has none.
func readVerdict(root string, j *streamJob) error {
	switch {
	case j.verdict.IsZero():
		return fmt.Errorf("no verdict within %v of the last submission", streamDrain)
	case j.failed:
		msg, _ := os.ReadFile(filepath.Join(root, "failed", j.name, "error.txt"))
		return fmt.Errorf("landed in failed/: %s", strings.TrimSpace(string(msg)))
	}
	data, err := os.ReadFile(filepath.Join(root, "done", j.name, "verdict.json"))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, &j.v)
}

// checkStream compares every verdict with the serial engine's result on
// the same source.
func checkStream(out *outcome, jobs []*streamJob, srcs []streamSource) {
	used := make(map[int]bool)
	for _, j := range jobs {
		used[j.src] = true
	}
	type ref struct {
		pass     bool
		outcomes map[string]int
		err      error
	}
	refs := make(map[int]*ref)
	var idx []int
	for i := range used {
		refs[i] = &ref{}
		idx = append(idx, i)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				r := refs[i]
				c, err := litmuslang.CompileSource(srcs[i].src)
				if err != nil {
					r.err = err
					continue
				}
				res := litmus.ExploreSerial(c.Build, litmus.Options{Properties: c.Properties(), Model: c.Config.Model})
				r.pass = res.Violations == 0 && !res.Truncated
				r.outcomes = make(map[string]int, len(res.Outcomes))
				for o, n := range res.Outcomes {
					r.outcomes[string(o)] = n
				}
			}
		}()
	}
	for _, i := range idx {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, j := range jobs {
		if j.v.Outcomes == nil {
			continue // already counted by readVerdict
		}
		r := refs[j.src]
		switch {
		case r.err != nil:
			out.problem("%s (%s): reference compile: %v", j.name, srcs[j.src].name, r.err)
		case r.pass != j.v.Pass:
			out.problem("%s (%s): pass=%v, reference %v", j.name, srcs[j.src].name, j.v.Pass, r.pass)
		case !sameCounts(r.outcomes, j.v.Outcomes):
			out.problem("%s (%s): %d outcomes, reference %d", j.name, srcs[j.src].name, len(j.v.Outcomes), len(r.outcomes))
		}
	}
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// streamLayers derives the per-layer numbers of the traced half. A
// job's span runs from its due time to its verdict; its child is the
// exploration the verdict reports (elapsed_ms, ending at the verdict),
// so the job's self time is the time it spent waiting for the daemon.
func streamLayers(tr *tracer, jobs []*streamJob, m0, m1 daemonMetrics) map[string]float64 {
	l := make(map[string]float64)
	var run, late []float64
	var states, elapsedMs float64
	for _, j := range jobs {
		if !j.traced {
			continue
		}
		late = append(late, lateMs(j.due, j.submitted))
		if j.v.Outcomes == nil {
			continue
		}
		id := tr.id()
		tr.add(span{ID: id, Job: id, Name: "litmusd.job", Start: j.due, End: j.verdict})
		runStart := j.verdict.Add(-time.Duration(j.v.ElapsedMs) * time.Millisecond)
		tr.add(span{ID: tr.id(), Parent: id, Job: id, Name: "litmusd.run", Start: runStart, End: j.verdict})
		run = append(run, float64(j.v.ElapsedMs))
		states += float64(j.v.States)
		elapsedMs += float64(j.v.ElapsedMs)
	}
	var queue []float64
	self := selfTimes(tr.spans)
	for _, s := range tr.named("litmusd.job") {
		queue = append(queue, float64(self[s.ID])/float64(time.Millisecond))
	}
	l["litmusd.queue_ms_p50"] = median(queue)
	l["litmusd.run_ms_p50"] = median(run)
	l["litmusd.checkpoint_writes"] = float64(m1.Engine.Counters["checkpoint_writes"] - m0.Engine.Counters["checkpoint_writes"])
	l["litmusd.checkpoint_bytes"] = m1.Engine.Gauges["checkpoint_bytes"]
	l["litmusd.jobs_retried"] = float64(m1.Retried - m0.Retried)
	for _, v := range late {
		if v > l["gen.late_ms_max"] {
			l["gen.late_ms_max"] = v
		}
	}
	l["litmus.explore_calls"] = float64(len(run))
	l["litmus.explore_s"] = elapsedMs / 1000
	l["litmus.states"] = states
	if elapsedMs > 0 {
		l["litmus.states_per_s"] = states / (elapsedMs / 1000)
	}
	tries := m1.Engine.Counters["claim_tries"] - m0.Engine.Counters["claim_tries"]
	wins := m1.Engine.Counters["claim_wins"] - m0.Engine.Counters["claim_wins"]
	if tries > 0 {
		l["litmus.claim_hit_rate"] = float64(tries-wins) / float64(tries)
	}
	return l
}
