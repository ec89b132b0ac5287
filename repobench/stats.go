package main

import (
	"sort"
	"time"
)

// Percentiles are whole per-mille ranks (990 = p99) so that the rank
// arithmetic below is exact integer arithmetic.

// rank returns the 1-based nearest-rank position of the per-mille
// percentile pm among n samples: the smallest r with r/n >= pm/1000.
func rank(n, pm int) int {
	r := (n*pm + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is the number of samples strictly after the nearest-rank
// percentile pm of n samples.
func beyond(n, pm int) int { return n - rank(n, pm) }

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// highestTail returns the highest per-mille percentile, in steps of step,
// that leaves at least minBeyond of n samples beyond it, or 0 when n is too
// small for any. Each workload's fixed tail percentile was chosen with it
// from the sample count a run collects.
func highestTail(n, step int) int {
	for pm := 1000 - step; pm > 0; pm -= step {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// percentileMs returns the nearest-rank per-mille percentile of the
// samples in milliseconds. It sorts a copy.
func percentileMs(samples []time.Duration, pm int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(s[rank(len(s), pm)-1])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// outcome classifies one attempted operation.
type outcome int

const (
	ok       outcome = iota
	errored          // the call returned an error or a non-2xx status
	refused          // shed or unavailable: admission, breaker, drain
	partial          // an anytime prefix instead of the full answer
	degraded         // served by the degradation ladder or a local fallback
	mismatch         // a full answer that failed an output check
)

var outcomeNames = [...]string{"ok", "errored", "refused", "partial", "degraded", "mismatch"}

func (o outcome) String() string { return outcomeNames[o] }

// tally counts operation outcomes. Every non-ok outcome is a failure.
type tally struct {
	n [len(outcomeNames)]int
	// first keeps the first message of each failing class for the report.
	first [len(outcomeNames)]string
}

func (t *tally) add(o outcome, msg string) {
	if t.n[o] == 0 {
		t.first[o] = msg
	}
	t.n[o]++
}

func (t *tally) attempted() int {
	sum := 0
	for _, c := range t.n {
		sum += c
	}
	return sum
}

func (t *tally) failed() int { return t.attempted() - t.n[ok] }

func (t *tally) merge(o *tally) {
	for i := range t.n {
		if t.n[i] == 0 {
			t.first[i] = o.first[i]
		}
		t.n[i] += o.n[i]
	}
}
