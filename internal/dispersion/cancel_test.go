package dispersion

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// cancel_test.go covers cancellation of the O(m²)-seeded heuristics.

// TestFarthestSeedCtxCancel pins the new cancellation point inside the
// O(m²) seeding scan: a pre-cancelled context must abort with no selection,
// and a context cancelled mid-scan must abort within one check stride.
func TestFarthestSeedCtxCancel(t *testing.T) {
	m := 600 // m² = 360000 pair evaluations ≫ cancelCheckStride
	dist := synthDist(m, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := SelectDiverseSetFarthestSeedCtx(ctx, m, 5, dist)
	if !errors.Is(err, context.Canceled) || len(got) != 0 {
		t.Fatalf("pre-cancelled: got %v, err %v", got, err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	evals := 0
	counting := func(i, j int) float64 {
		evals++
		if evals == 2*cancelCheckStride {
			cancel2()
		}
		return dist(i, j)
	}
	_, err = SelectDiverseSetFarthestSeedCtx(ctx2, m, 5, counting)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-seeding cancel: err = %v", err)
	}
	if evals > 3*cancelCheckStride {
		t.Fatalf("cancellation latency: %d evaluations after cancel at %d", evals, 2*cancelCheckStride)
	}

	// Uncancelled ctx variant matches the plain function.
	want, err := SelectDiverseSetFarthestSeed(m, 5, dist)
	if err != nil {
		t.Fatal(err)
	}
	got, err = SelectDiverseSetFarthestSeedCtx(context.Background(), m, 5, dist)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ctx variant diverged: %v vs %v", got, want)
	}
}

// TestGreedyMaxSumCtxCancel is the same contract for the max-sum heuristic.
func TestGreedyMaxSumCtxCancel(t *testing.T) {
	m := 600
	dist := synthDist(m, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := GreedyMaxSumCtx(ctx, m, 5, dist)
	if !errors.Is(err, context.Canceled) || len(got) != 0 {
		t.Fatalf("pre-cancelled: got %v, err %v", got, err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	evals := 0
	counting := func(i, j int) float64 {
		evals++
		if evals == 2*cancelCheckStride {
			cancel2()
		}
		return dist(i, j)
	}
	_, err = GreedyMaxSumCtx(ctx2, m, 5, counting)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-seeding cancel: err = %v", err)
	}
	if evals > 3*cancelCheckStride {
		t.Fatalf("cancellation latency: %d evaluations after cancel at %d", evals, 2*cancelCheckStride)
	}

	want, err := GreedyMaxSum(m, 5, dist)
	if err != nil {
		t.Fatal(err)
	}
	got, err = GreedyMaxSumCtx(context.Background(), m, 5, dist)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ctx variant diverged: %v vs %v", got, want)
	}
}
