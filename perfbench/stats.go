package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// percentile is trusted: with fewer, the value is set by a handful of
// outliers and moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie strictly above its rank. xs is not
// modified. An empty xs yields (0, false).
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the 50th percentile by nearest rank.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// latencyMs is the time to verdict of one open-loop job in
// milliseconds. It counts from the job's due time, not from when the
// generator got round to submitting it, so a stalled generator shows
// up as latency on every job it delayed.
func latencyMs(due, verdict time.Time) float64 {
	return float64(verdict.Sub(due)) / float64(time.Millisecond)
}

// lateMs is how far behind schedule the generator submitted a job, in
// milliseconds; submitting early (never done) or on time reads 0.
func lateMs(due, submitted time.Time) float64 {
	if !submitted.After(due) {
		return 0
	}
	return float64(submitted.Sub(due)) / float64(time.Millisecond)
}
