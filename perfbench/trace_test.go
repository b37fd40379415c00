package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		// Two children that overlap each other cover [10, 40) once.
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(40)},
		// A disjoint child covers [50, 60).
		{ID: 4, Parent: 1, Start: at(50), End: at(60)},
		// A child reaching past the parent counts only inside it.
		{ID: 5, Parent: 1, Start: at(90), End: at(130)},
		// A grandchild is its parent's business, not the job's.
		{ID: 6, Parent: 4, Start: at(52), End: at(55)},
		// A root with no children keeps its whole duration.
		{ID: 7, Name: "lone", Start: at(0), End: at(7)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100*time.Millisecond - (30+10+10)*time.Millisecond,
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 7 * time.Millisecond,
		5: 40 * time.Millisecond,
		6: 3 * time.Millisecond,
		7: 7 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestStreamQueueIsJobSelfTime(t *testing.T) {
	// A job due at 0 whose verdict arrived at 250ms after an exploration
	// of 40ms waited 210ms for the daemon.
	tr := &tracer{enabled: true}
	j := &streamJob{due: at(0), submitted: at(2), verdict: at(250), traced: true,
		v: jobVerdict{ElapsedMs: 40, Outcomes: map[string]int{"x": 1}}}
	l := streamLayers(tr, []*streamJob{j}, daemonMetrics{}, daemonMetrics{})
	if got := l["litmusd.queue_ms_p50"]; got != 210 {
		t.Errorf("queue = %vms, want 210", got)
	}
	if got := l["litmusd.run_ms_p50"]; got != 40 {
		t.Errorf("run = %vms, want 40", got)
	}
	if got := l["gen.late_ms_max"]; got != 2 {
		t.Errorf("lateness = %vms, want 2", got)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := &tracer{}
	ran := false
	if d := tr.timed("x", 1, 0, func() { ran = true }); d < 0 || !ran {
		t.Fatalf("timed: ran=%v d=%v", ran, d)
	}
	tr.add(span{ID: 1})
	if len(tr.spans) != 0 {
		t.Errorf("disabled tracer kept %d spans", len(tr.spans))
	}
}
