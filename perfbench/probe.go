package main

import (
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/programs"
	"repro/internal/tso"
)

// The machine probe times the per-state operations of the tso, mesi
// and storebuf layers on states the explore-large programs really
// reach. The engine calls these once or more per explored state, and
// outside-in spans around whole Explore calls cannot split them out.

const (
	probeWalks   = 40 // random walks per program
	probeWalkLen = 60 // steps per walk at most
	probeRounds  = 20 // timed passes over the sampled states
)

// sampleStates collects machine states by seeded random walks from each
// program's root, taking one uniformly chosen enabled TSO step at a
// time (commit an instruction or drain the oldest buffered store) and
// keeping every state the walk passes.
func sampleStates(seed int64) []*tso.Machine {
	rng := rand.New(rand.NewSource(seed))
	builds := []func() *tso.Machine{
		programs.PetersonN(3, programs.DekkerMfence).Build,
		programs.BakeryN(3, programs.DekkerMfence).Build,
		bakeryPairBuild(programs.DekkerLmfenceMirrored),
	}
	type step struct {
		pid   arch.ProcID
		drain bool
	}
	var out []*tso.Machine
	var steps []step
	for _, build := range builds {
		for w := 0; w < probeWalks; w++ {
			m := build()
			for n := 0; n < probeWalkLen; n++ {
				steps = steps[:0]
				for i := range m.Procs {
					pid := arch.ProcID(i)
					if m.CanExec(pid) {
						steps = append(steps, step{pid, false})
					}
					if m.CanDrain(pid) {
						steps = append(steps, step{pid, true})
					}
				}
				if len(steps) == 0 {
					break
				}
				s := steps[rng.Intn(len(steps))]
				if s.drain {
					m.DrainStep(s.pid)
				} else {
					m.ExecStep(s.pid)
				}
				out = append(out, m.Clone())
			}
		}
	}
	return out
}

// perCall times rounds of f over n items and returns nanoseconds per
// call.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for r := 0; r < probeRounds; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	return float64(time.Since(start)) / float64(probeRounds*n)
}

// probe adds the tso.*, mesi.* and storebuf.* layer numbers to l.
func probe(l map[string]float64, seed int64) {
	states := sampleStates(seed)
	n := len(states)
	dst := make([]*tso.Machine, n)
	for i, s := range states {
		dst[i] = s.Clone()
	}
	var buf []byte
	var fpBytes, buffers int
	for _, s := range states {
		buf = s.Fingerprint(buf[:0])
		fpBytes += len(buf)
		buffers += len(s.Procs)
	}
	l["tso.fingerprint_bytes"] = float64(fpBytes) / float64(n)

	// Warm caches and the intern tables before any timing.
	perCall(n, func(i int) { dst[i].CopyFrom(states[i]) })
	l["tso.copyfrom_ns"] = perCall(n, func(i int) { dst[i].CopyFrom(states[i]) })
	l["tso.fingerprint_ns"] = perCall(n, func(i int) { buf = states[i].Fingerprint(buf[:0]) })
	col := tso.NewCollapser()
	var key, scratch []byte
	perCall(n, func(i int) { key = col.Collapse(states[i], key[:0], &scratch) })
	l["tso.collapse_ns"] = perCall(n, func(i int) { key = col.Collapse(states[i], key[:0], &scratch) })

	execPid := make([]arch.ProcID, n)
	drainPid := make([]arch.ProcID, n)
	for i, s := range states {
		execPid[i], drainPid[i] = -1, -1
		for p := range s.Procs {
			pid := arch.ProcID(p)
			if execPid[i] < 0 && s.CanExec(pid) {
				execPid[i] = pid
			}
			if drainPid[i] < 0 && s.CanDrain(pid) {
				drainPid[i] = pid
			}
		}
	}
	l["tso.exec_step_ns"] = stepNs(states, dst, execPid, func(m *tso.Machine, p arch.ProcID) { m.ExecStep(p) })
	l["tso.drain_step_ns"] = stepNs(states, dst, drainPid, func(m *tso.Machine, p arch.ProcID) { m.DrainStep(p) })

	l["mesi.copyfrom_ns"] = perCall(n, func(i int) { dst[i].Sys.CopyFrom(states[i].Sys) })
	l["mesi.fingerprint_ns"] = perCall(n, func(i int) { buf = states[i].Sys.Fingerprint(buf[:0]) })
	// The store-buffer numbers are per buffer, one per processor.
	perBuf := float64(n) / float64(buffers)
	l["storebuf.copyfrom_ns"] = perBuf * perCall(n, func(i int) {
		for p, sp := range states[i].Procs {
			dst[i].Procs[p].SB.CopyFrom(sp.SB)
		}
	})
	l["storebuf.fingerprint_ns"] = perBuf * perCall(n, func(i int) {
		for _, sp := range states[i].Procs {
			buf = sp.SB.Fingerprint(buf[:0])
		}
	})
}

// stepNs times step over the states where pid[i] >= 0. A step mutates
// its machine, so every round steps fresh copies, made untimed; the
// first round only warms the caches.
func stepNs(states, dst []*tso.Machine, pid []arch.ProcID, step func(*tso.Machine, arch.ProcID)) float64 {
	var idx []int
	for i, p := range pid {
		if p >= 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	var spent time.Duration
	for r := 0; r <= probeRounds; r++ {
		for _, i := range idx {
			dst[i].CopyFrom(states[i])
		}
		start := time.Now()
		for _, i := range idx {
			step(dst[i], pid[i])
		}
		if r > 0 {
			spent += time.Since(start)
		}
	}
	return float64(spent) / float64(probeRounds*len(idx))
}
