package skydiver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// countdownCtx cancels itself after a budget of successful Err checks: the
// first `allow` calls to Err return nil, every later call returns
// context.Canceled. Because the library polls ctx.Err() at page/shard
// granularity rather than selecting on Done, this deterministically targets
// the N-th cancellation point of the pipeline — no timing races. Safe for
// concurrent use by parallel workers.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	allow int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allow <= 0 {
		return context.Canceled
	}
	c.allow--
	return nil
}

// countingCtx never cancels but counts how many times Err is consulted,
// which measures how many cancellation points a full run passes through.
type countingCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return nil
}

func cancelTestDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(Anticorrelated, 8000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkPartial asserts a cancellation-produced Result is a well-formed
// anytime prefix: Partial set, at most k indexes, no duplicates, every
// index on the skyline, Points aligned with Indexes.
func checkPartial(t *testing.T, ds *Dataset, res *Result, k int) {
	t.Helper()
	if res == nil {
		t.Fatal("cancelled run must still return a partial Result")
	}
	if !res.Partial {
		t.Error("Partial flag not set on interrupted result")
	}
	if len(res.Indexes) > k {
		t.Errorf("partial result has %d indexes, more than k=%d", len(res.Indexes), k)
	}
	if len(res.Points) != len(res.Indexes) {
		t.Errorf("Points/Indexes mismatch: %d vs %d", len(res.Points), len(res.Indexes))
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	onSky := make(map[int]bool, len(sky))
	for _, s := range sky {
		onSky[s] = true
	}
	seen := make(map[int]bool, len(res.Indexes))
	for i, idx := range res.Indexes {
		if !onSky[idx] {
			t.Errorf("partial index %d not on the skyline", idx)
		}
		if seen[idx] {
			t.Errorf("duplicate index %d in partial result", idx)
		}
		seen[idx] = true
		for d, v := range res.Points[i] {
			if v != ds.Point(idx)[d] {
				t.Errorf("Points[%d] does not match dataset point %d", i, idx)
				break
			}
		}
	}
}

// TestCancellationAtEveryStage cancels each algorithm at a spread of its
// cancellation points — early (skyline / fingerprinting), middle, and just
// before completion — and checks that every interruption yields a prompt
// context.Canceled plus a well-formed anytime prefix. Every case also runs
// under a budget that never triggers, whose context the I/O session
// observes: a read refused because the query was cancelled must still end
// in the anytime prefix.
func TestCancellationAtEveryStage(t *testing.T) {
	const k = 6
	// NoCache keeps every run's cancellation-point count identical to the
	// measured first run; with the fingerprint cache on, repeat queries skip
	// Phase 1 and a late countdown would never fire. (Cancellation of cache
	// waiters is covered by the core fpcache tests.)
	cases := []struct {
		name string
		opts Options
	}{
		{"minhash-if", Options{K: k, Algorithm: MinHash, SignatureSize: 32, Seed: 1, NoCache: true}},
		{"minhash-ib", Options{K: k, Algorithm: MinHash, SignatureSize: 32, Seed: 1, UseIndex: true, NoCache: true}},
		{"minhash-parallel", Options{K: k, Algorithm: MinHash, SignatureSize: 32, Seed: 1, Workers: 4, NoCache: true}},
		{"lsh", Options{K: k, Algorithm: LSH, SignatureSize: 32, Seed: 1, NoCache: true}},
		{"greedy", Options{K: k, Algorithm: Greedy, SignatureSize: 32, Seed: 1, NoCache: true}},
		{"exact", Options{K: 3, Algorithm: Exact, SignatureSize: 32, Seed: 1, NoCache: true}},
	}
	for _, tc := range cases {
		budgeted := tc
		budgeted.name += "-budgeted"
		budgeted.opts.Budget = Budget{MaxWall: time.Hour}
		cases = append(cases, budgeted)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := cancelTestDataset(t)
			if tc.opts.Algorithm == Exact {
				// Brute force needs a small skyline; shrink the input.
				var err error
				ds, err = Generate(Anticorrelated, 2000, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
			}
			// Warm the skyline cache so cancellations target the
			// diversification stages, then measure the total number of
			// cancellation points of a full run.
			if _, err := ds.Skyline(); err != nil {
				t.Fatal(err)
			}
			counter := &countingCtx{Context: context.Background()}
			want, err := ds.DiversifyContext(counter, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if counter.calls < 2 {
				t.Fatalf("pipeline passed only %d cancellation points; stage coverage impossible", counter.calls)
			}
			// Cancel at the first check, one mid-pipeline, and the last
			// check before completion.
			points := []int{0, 1, counter.calls / 2, counter.calls - 1}
			for _, allow := range points {
				ctx := &countdownCtx{Context: context.Background(), allow: allow}
				res, err := ds.DiversifyContext(ctx, tc.opts)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("allow=%d: err = %v, want context.Canceled", allow, err)
				}
				checkPartial(t, ds, res, tc.opts.K)
			}
			// A live context after all those cancellations still gets the
			// full answer.
			again, err := ds.Diversify(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.Indexes) != len(want.Indexes) {
				t.Errorf("post-cancel rerun selected %d points, want %d", len(again.Indexes), len(want.Indexes))
			}
		})
	}
}

// TestDeadlineExceededSentinel: an expired deadline surfaces as
// ErrDeadlineExceeded and still matches context.DeadlineExceeded.
func TestDeadlineExceededSentinel(t *testing.T) {
	ds := cancelTestDataset(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	// Expiry during the skyline phase: no result at all.
	if _, err := ds.SkylineContext(ctx); err == nil {
		t.Fatal("expected deadline error from SkylineContext")
	} else if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("skyline error %v must match both sentinels", err)
	}

	// With the skyline cached, expiry during diversification yields an
	// empty partial result alongside the error.
	if _, err := ds.Skyline(); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, SignatureSize: 32, Seed: 1}
	res, err := ds.DiversifyContext(ctx, opts)
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("diversify error %v must match both sentinels", err)
	}
	checkPartial(t, ds, res, opts.K)
	if len(res.Indexes) != 0 {
		t.Errorf("pre-selection expiry must yield an empty prefix, got %v", res.Indexes)
	}
}

// TestCancellationLeaksNoGoroutines: cancelling the parallel pipeline (the
// only stage that spawns goroutines) leaves no workers behind.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	ds := cancelTestDataset(t)
	if _, err := ds.Skyline(); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 6, SignatureSize: 64, Seed: 1, Workers: 8}
	before := runtime.NumGoroutine()
	for allow := 0; allow < 12; allow++ {
		ctx := &countdownCtx{Context: context.Background(), allow: allow}
		if _, err := ds.DiversifyContext(ctx, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("allow=%d: err = %v, want context.Canceled", allow, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellations", before, after)
	}
}

// TestStreamMonitorCancellation: a cancelled window recomputation returns
// the context's error without poisoning the cache.
func TestStreamMonitorCancellation(t *testing.T) {
	mon, err := NewStreamMonitor(3, 512, 4, nil, Options{SignatureSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		v := float64(i)
		if _, err := mon.Add([]float64{v, 511 - v, float64(i%7) * 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mon.DiverseContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancellation must not be cached: a live context recomputes.
	picks, err := mon.Diverse()
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 4 {
		t.Fatalf("monitor selected %d points after cancelled attempt, want 4", len(picks))
	}
	// Mid-computation cancellation on a fresh window, same non-poisoning.
	if _, err := mon.Add([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), allow: 1}
	if _, err := mon.DiverseContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := mon.Diverse(); err != nil {
		t.Fatalf("recomputation after cancellation failed: %v", err)
	}
}

// TestFaultInjectionEndToEnd: with 1% transient faults the pipeline heals
// through retries; with fully permanent faults it fails cleanly.
func TestFaultInjectionEndToEnd(t *testing.T) {
	ds, err := Generate(Independent, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := ParseFaultPolicy("rate=0.01,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InjectFaults(policy); err != nil {
		t.Fatal(err)
	}
	res, err := ds.Diversify(Options{K: 5, SignatureSize: 64, Seed: 1, UseIndex: true})
	if err != nil {
		t.Fatalf("transient faults must be retried away: %v", err)
	}
	if len(res.Indexes) != 5 {
		t.Fatalf("selected %d points, want 5", len(res.Indexes))
	}
	injected, retries := ds.FaultStats()
	if injected == 0 {
		t.Error("no faults injected at rate=0.01 over an index traversal")
	}
	if retries < injected {
		t.Errorf("retries=%d < injected=%d: some transient faults were not retried", retries, injected)
	}

	// Permanent faults cannot be retried away and must surface cleanly.
	ds2, err := Generate(Independent, 5000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	policy2, err := ParseFaultPolicy("rate=1,permanent=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.InjectFaults(policy2); err != nil {
		t.Fatal(err)
	}
	if _, err := ds2.Diversify(Options{K: 3, SignatureSize: 32, Seed: 1, UseIndex: true}); !errors.Is(err, ErrPermanentFault) {
		t.Fatalf("err = %v, want ErrPermanentFault", err)
	}
	// Disabling injection restores service.
	if err := ds2.InjectFaults(FaultPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds2.Diversify(Options{K: 3, SignatureSize: 32, Seed: 1, UseIndex: true}); err != nil {
		t.Fatalf("recovery after clearing faults failed: %v", err)
	}
}
