package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileTrustsOnlyTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 95, 190, true},  // ranks 191..200 lie beyond: exactly 10
		{199, 95, 190, false}, // rank ceil(189.05) = 190, 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{12, 95, 12, false}, // explore-large's count: the maximum
		{1, 50, 1, false},
		{1000, 99, 990, true},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
	xs := seq(5)
	percentile(xs, 50)
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator submitted 30ms late and the verdict came 50ms after
	// submission: the job waited 80ms from the time it was due.
	submitted := due.Add(30 * time.Millisecond)
	verdict := submitted.Add(50 * time.Millisecond)
	if got := latencyMs(due, verdict); got != 80 {
		t.Errorf("latency = %vms, want 80", got)
	}
	if got := lateMs(due, submitted); got != 30 {
		t.Errorf("lateness = %vms, want 30", got)
	}
	if got := lateMs(due, due); got != 0 {
		t.Errorf("on-time lateness = %vms, want 0", got)
	}
	if got := lateMs(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early lateness = %vms, want 0", got)
	}
}

func TestPassOrderRepeatsShortJobsBetweenLongOnes(t *testing.T) {
	jobs := exploreJobs()
	order := passOrder(jobs)
	runs := make(map[int]int)
	for _, i := range order {
		runs[i]++
	}
	for i, j := range jobs {
		want := 1
		if j.short {
			want = shortRepeats
		}
		if runs[i] != want {
			t.Errorf("%s runs %d times per pass, want %d", j.name, runs[i], want)
		}
	}
	// The pass alternates rounds of short jobs with long jobs, ending
	// on a long one.
	rounds := 0
	for k, i := range order {
		if jobs[i].short && (k == 0 || !jobs[order[k-1]].short) {
			rounds++
		}
	}
	if rounds != shortRepeats || jobs[order[len(order)-1]].short {
		t.Errorf("pass %v: %d rounds of short jobs, want %d, ending on a long job", order, rounds, shortRepeats)
	}
}
