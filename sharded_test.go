package skydiver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// shardedGoldenCounts are the shard counts every equivalence test sweeps.
var shardedGoldenCounts = []int{2, 3, 4, 8}

// TestShardedGolden pins the sharded path to the unsharded goldens of
// golden_test.go: for every tested shard count the selected set and the
// objective are bit-identical to the index-free single-shard run. MH with
// UseIndex is included deliberately — sharded signatures live in the
// index-free universe, so the result matches the IF golden, not the IB one.
func TestShardedGolden(t *testing.T) {
	runs := []struct {
		name string
		opts Options
		idx  string
		obj  string
	}{
		{"MH", Options{K: 4, Seed: 7}, "[480 122 818 857]", "0.890000"},
		{"MH-index-ignored", Options{K: 4, Seed: 7, UseIndex: true}, "[480 122 818 857]", "0.890000"},
		{"LSH", Options{K: 4, Seed: 7, Algorithm: LSH}, "[480 122 818 649]", "92.000000"},
	}
	for _, r := range runs {
		for _, shards := range shardedGoldenCounts {
			t.Run(fmt.Sprintf("%s/s%d", r.name, shards), func(t *testing.T) {
				ds, err := Generate(Independent, 2000, 3, 7)
				if err != nil {
					t.Fatal(err)
				}
				opts := r.opts
				opts.Shards = shards
				res, err := ds.Diversify(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(res.Indexes); got != r.idx {
					t.Errorf("indexes = %s, want %s", got, r.idx)
				}
				if got := fmt.Sprintf("%.6f", res.ObjectiveValue); got != r.obj {
					t.Errorf("objective = %s, want %s", got, r.obj)
				}
			})
		}
	}
}

// TestShardedMatchesUnsharded compares sharded and unsharded runs point for
// point on more distributions, and checks the cache seam: an unsharded
// index-free fingerprint serves a later sharded query (and vice versa)
// because both live under the same cache key.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, dist := range []Distribution{Independent, Correlated, Anticorrelated} {
		ds, err := Generate(dist, 3000, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ds.SkylineSize()
		if err != nil {
			t.Fatal(err)
		}
		k := 5
		if m < k {
			k = m // correlated data can have a near-singleton skyline
		}
		want, err := ds.Diversify(Options{K: k, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardedGoldenCounts {
			res, err := ds.Diversify(Options{K: k, Seed: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
				t.Errorf("%v/s%d: indexes = %v, want %v", dist, shards, res.Indexes, want.Indexes)
			}
			if !res.FingerprintCached {
				t.Errorf("%v/s%d: sharded query missed the fingerprint the unsharded run built", dist, shards)
			}
		}
	}
}

// TestShardsValidation pins the option's error contract.
func TestShardsValidation(t *testing.T) {
	ds, err := Generate(Independent, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Diversify(Options{K: 2, Shards: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Shards: -1 err = %v, want ErrInvalidOptions", err)
	}
	// 0 and 1 are the unsharded path and must work.
	for _, s := range []int{0, 1} {
		if _, err := ds.Diversify(Options{K: 2, Shards: s}); err != nil {
			t.Errorf("Shards: %d err = %v", s, err)
		}
	}
}

// TestShardedAfterMutations mutates the dataset (growing past the plan's
// epoch) and checks that sharded queries rebuild the plan and still match
// the unsharded answer.
func TestShardedAfterMutations(t *testing.T) {
	ds, err := Generate(Independent, 1500, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Build a plan at epoch 0.
	if _, err := ds.Diversify(Options{K: 3, Seed: 1, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert([]float64{0.001, 0.002, 0.003}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(10); err != nil {
		t.Fatal(err)
	}
	want, err := ds.Diversify(Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardedGoldenCounts {
		res, err := ds.Diversify(Options{K: 3, Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
			t.Errorf("s%d after mutations: indexes = %v, want %v", shards, res.Indexes, want.Indexes)
		}
	}
}

// TestShardedFaultInjection installs transient storage faults before the
// first sharded query, so the per-shard BBS passes of the plan build run
// against faulting shard stores: the retries must recover, the answer must
// equal the unfaulted one, and the injector must have fired.
func TestShardedFaultInjection(t *testing.T) {
	clean, err := Generate(Independent, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Diversify(Options{K: 4, Seed: 7, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(Independent, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InjectFaults(FaultPolicy{Rate: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := ds.Diversify(Options{K: 4, Seed: 7, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
		t.Errorf("faulted sharded indexes = %v, want %v", res.Indexes, want.Indexes)
	}
	injected, _ := ds.FaultStats()
	if injected == 0 {
		t.Error("no faults injected through the sharded path")
	}
	if err := ds.InjectFaults(FaultPolicy{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCancelledContext covers the plan-build cancellation seam end to
// end through the public API.
func TestShardedCancelledContext(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.DiversifyContext(ctx, Options{K: 4, Seed: 7, Shards: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The dataset stays healthy: a live context succeeds afterwards.
	if _, err := ds.Diversify(Options{K: 4, Seed: 7, Shards: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrent hammers one dataset with concurrent sharded queries
// at different shard counts (exercising concurrent plan builds) and requires
// every answer to equal the unsharded one. Run under -race this also pins
// the plan cache's synchronization.
func TestShardedConcurrent(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Diversify(Options{K: 4, Seed: 7, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		shards := shardedGoldenCounts[g%len(shardedGoldenCounts)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ds.Diversify(Options{K: 4, Seed: 7, Shards: shards, NoCache: true})
			if err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
				errs <- fmt.Errorf("s%d: indexes = %v, want %v", shards, res.Indexes, want.Indexes)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardedBuildsNoPlan: in process, a sharded query runs the index-free
// fold and caches no shard plan — before and after a write — while
// answering like the unsharded query; a remote query still caches the plan
// its skyline cross-check needs.
func TestShardedBuildsNoPlan(t *testing.T) {
	ds, err := Generate(Independent, 3000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	plans := func(d *Dataset) int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.plans)
	}
	check := func(stage string) {
		want, err := ds.Diversify(Options{K: 4, Seed: 2, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			res, err := ds.Diversify(Options{K: 4, Seed: 2, Shards: shards, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) || res.ObjectiveValue != want.ObjectiveValue {
				t.Errorf("%s, s%d: indexes %v (objective %v), unsharded %v (%v)",
					stage, shards, res.Indexes, res.ObjectiveValue, want.Indexes, want.ObjectiveValue)
			}
		}
		if n := plans(ds); n != 0 {
			t.Errorf("%s: %d shard plans cached by in-process sharded queries", stage, n)
		}
	}
	check("before insert")
	if _, err := ds.Insert([]float64{0.001, 0.002, 0.003}); err != nil {
		t.Fatal(err)
	}
	check("after insert")

	_, urls := startShardWorkers(t, 2)
	remote, err := Generate(Independent, 3000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Diversify(Options{K: 4, Seed: 2, Shards: 2, Remote: &RemoteOptions{Workers: urls}}); err != nil {
		t.Fatal(err)
	}
	if n := plans(remote); n != 1 {
		t.Errorf("remote query cached %d shard plans, want 1", n)
	}
}
