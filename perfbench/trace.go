package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one job share Job; Parent names the span that
// caused this one (0 for a job's root span).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Job    int64     `json:"job"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced path pays one branch per call site.
type tracer struct {
	enabled bool
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
}

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	if !t.enabled {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f and records it as a span named name under parent.
func (t *tracer) timed(name string, job, parent int64, f func()) time.Duration {
	s := span{Job: job, Parent: parent, Name: name, Start: time.Now()}
	f()
	s.End = time.Now()
	if t.enabled {
		s.ID = t.id()
		t.add(s)
	}
	return s.dur()
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval covered by its children. Children
// that overlap each other count once, and a child reaching outside
// its parent counts only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
