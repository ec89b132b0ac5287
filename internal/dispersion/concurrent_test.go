package dispersion

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// concurrent_test.go covers selections running in parallel. The server
// answers reads concurrently, so several greedy selections may run at once
// over one shared distance oracle and score vector. Every parallel run must
// return exactly the picks of a sequential eager run; under -race these
// tests also catch any state the runs share.

// parallelSelect runs SelectDiverseSetCtx from runs goroutines at once and
// returns each run's picks and error.
func parallelSelect(runs, m, k int, dist DistFunc, score []float64) ([][]int, []error) {
	picks := make([][]int, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			picks[r], errs[r] = SelectDiverseSetCtx(context.Background(), m, k, dist, score)
		}(r)
	}
	wg.Wait()
	return picks, errs
}

// checkParallel fails unless every one of runs parallel selections returns
// the sequential eager selection.
func checkParallel(t *testing.T, runs, m, k int, dist DistFunc, score []float64) {
	t.Helper()
	want, err := SelectDiverseSetEagerCtx(context.Background(), m, k, dist, score)
	if err != nil {
		t.Fatal(err)
	}
	picks, errs := parallelSelect(runs, m, k, dist, score)
	for r := range picks {
		if errs[r] != nil {
			t.Fatalf("m=%d k=%d runs=%d: run %d: %v", m, k, runs, r, errs[r])
		}
		if fmt.Sprint(picks[r]) != fmt.Sprint(want) {
			t.Fatalf("m=%d k=%d runs=%d: run %d picked %v, want %v", m, k, runs, r, picks[r], want)
		}
	}
}

// TestParallelSelectionMatchesSequential is the golden pin for parallel
// runs: for a grid of sizes, k values and run counts, every run sharing the
// oracle and the scores returns the exact sequential sequence.
func TestParallelSelectionMatchesSequential(t *testing.T) {
	for _, m := range []int{1, 2, 17, 100, 2048, 3001} {
		dist := synthDist(m, int64(m))
		score := synthScore(m, int64(m)+1)
		for _, k := range []int{1, 2, 5, 10} {
			if k > m {
				continue
			}
			for _, runs := range []int{1, 2, 3, 7, 16} {
				checkParallel(t, runs, m, k, dist, score)
			}
		}
	}
}

// TestParallelSelectionNilScore covers the score-free path.
func TestParallelSelectionNilScore(t *testing.T) {
	m := 2500
	checkParallel(t, 4, m, 6, synthDist(m, 9), nil)
}

// TestParallelSelectionValidation runs invalid calls beside a valid one:
// each invalid call fails with its validation error, and the valid run
// still returns the sequential selection.
func TestParallelSelectionValidation(t *testing.T) {
	m := 100
	dist := synthDist(m, 1)
	want, err := SelectDiverseSetEagerCtx(context.Background(), m, 5, dist, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		k     int
		score []float64
	}{
		{"k=0", 0, nil},
		{"k>m", m + 1, nil},
		{"bad score length", 3, []float64{1}},
		{"valid", 5, nil},
	}
	picks := make([][]int, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for c := range cases {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			picks[c], errs[c] = SelectDiverseSetCtx(context.Background(), m, cases[c].k, dist, cases[c].score)
		}(c)
	}
	wg.Wait()
	for c, tc := range cases {
		if tc.name == "valid" {
			if errs[c] != nil || fmt.Sprint(picks[c]) != fmt.Sprint(want) {
				t.Errorf("valid run: got %v, %v; want %v", picks[c], errs[c], want)
			}
		} else if errs[c] == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
