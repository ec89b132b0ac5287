package skydiver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"skydiver/internal/core"
)

// shardedGoldenCounts are the shard counts the remote golden tests sweep.
var shardedGoldenCounts = []int{2, 3, 4, 8}

// sameAnswer reports how got differs from want in the selection, its
// objective and the query's accounting: I/O time, page faults, signature
// memory and whether Phase 1 came from the fingerprint cache.
func sameAnswer(got, want *Result) error {
	switch {
	case fmt.Sprint(got.Indexes) != fmt.Sprint(want.Indexes) || got.ObjectiveValue != want.ObjectiveValue:
		return fmt.Errorf("indexes %v (objective %v), want %v (%v)", got.Indexes, got.ObjectiveValue, want.Indexes, want.ObjectiveValue)
	case got.IOTime != want.IOTime || got.PageFaults != want.PageFaults:
		return fmt.Errorf("I/O %v in %d faults, want %v in %d", got.IOTime, got.PageFaults, want.IOTime, want.PageFaults)
	case got.MemoryBytes != want.MemoryBytes || got.FingerprintCached != want.FingerprintCached:
		return fmt.Errorf("memory %d (cached %v), want %d (%v)", got.MemoryBytes, got.FingerprintCached, want.MemoryBytes, want.FingerprintCached)
	}
	return nil
}

// TestShardedMatchesUnsharded pins Shards as a no-op in process: for every
// shard count, both signature algorithms and both Phase-1 modes, cached and
// uncached, a query answers and charges exactly what the Shards = 0 query
// does, and no sharded query builds a fingerprint the Shards = 0 query did
// not. On IND-300-3D at seed 5 a scan of only the rows with a dominator
// would charge a page fewer than SigGen-IF's scan of the whole file.
func TestShardedMatchesUnsharded(t *testing.T) {
	datasets := []struct {
		name string
		dist Distribution
		n    int
		seed int64
	}{
		{"IND-300-3D", Independent, 300, 5},
		{"IND-3000-3D", Independent, 3000, 11},
		{"COR-3000-3D", Correlated, 3000, 11},
		{"ANT-3000-3D", Anticorrelated, 3000, 11},
	}
	for _, spec := range datasets {
		for _, algo := range []Algorithm{MinHash, LSH} {
			for _, useIndex := range []bool{false, true} {
				for _, noCache := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%v/index=%v/nocache=%v", spec.name, algo, useIndex, noCache), func(t *testing.T) {
						ds, err := Generate(spec.dist, spec.n, 3, spec.seed)
						if err != nil {
							t.Fatal(err)
						}
						// Build the index and skyline first, so every query
						// below starts from the same state.
						m, err := ds.SkylineSize()
						if err != nil {
							t.Fatal(err)
						}
						base := Options{K: min(5, m), Seed: 3, Algorithm: algo, UseIndex: useIndex, NoCache: noCache}
						want, err := ds.Diversify(base)
						if err != nil {
							t.Fatal(err)
						}
						if !noCache {
							// Every cached query below reads the entry this
							// one built, as a second Shards = 0 query does.
							if want, err = ds.Diversify(base); err != nil {
								t.Fatal(err)
							}
						}
						builds := ds.FingerprintCacheStats().Builds
						for _, shards := range []int{0, 1, 2, 4, 8} {
							opts := base
							opts.Shards = shards
							got, err := ds.Diversify(opts)
							if err != nil {
								t.Fatal(err)
							}
							if err := sameAnswer(got, want); err != nil {
								t.Errorf("Shards = %d: %v", shards, err)
							}
						}
						if n := ds.FingerprintCacheStats().Builds - builds; n != 0 {
							t.Errorf("sharded queries ran %d fingerprint builds after the Shards = 0 query", n)
						}
					})
				}
			}
		}
	}
}

// TestShardedGolden pins remote sharded execution to the unsharded goldens
// of golden_test.go: for every tested shard count the selected set and the
// objective are bit-identical to the index-free single-shard run. MH with
// UseIndex is included deliberately — the fleet folds signatures in the
// index-free universe, so the result matches the IF golden, not the IB one.
func TestShardedGolden(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
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
				opts.Remote = &RemoteOptions{Workers: urls}
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
				if err := allShardsServed(res); err != nil {
					t.Fatal(err)
				}
				if res.Remote.Remote != shards {
					t.Errorf("remote stats = %+v, want all %d shards served by the fleet", res.Remote, shards)
				}
			})
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

// TestShardedAfterMutations mutates the dataset after a remote query. Later
// remote queries, because workers regenerate only pristine datasets, serve
// every shard locally; the answer still equals the unsharded one, I/O
// included.
func TestShardedAfterMutations(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	remote := Options{K: 3, Seed: 1, Shards: 4, NoCache: true, Remote: &RemoteOptions{Workers: urls}}
	// A remote query at epoch 0.
	if _, err := ds.Diversify(remote); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert([]float64{0.9, 0.002, 0.95}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(10); err != nil {
		t.Fatal(err)
	}
	want, err := ds.Diversify(Options{K: 3, Seed: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardedGoldenCounts {
		remote.Shards = shards
		res, err := ds.Diversify(remote)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(res, want); err != nil {
			t.Errorf("s%d after mutations: %v", shards, err)
		}
		if err := allShardsServed(res); err != nil {
			t.Fatalf("s%d after mutations: %v", shards, err)
		}
		// A query cuts no more shards than the data has pages.
		cut := min(shards, core.DataPages(ds.canon))
		if res.Remote.Local != cut || res.Remote.Remote != 0 {
			t.Errorf("s%d after mutations: remote stats = %+v, want all %d shards local", shards, res.Remote, cut)
		}
	}
}

// TestShardedFaultInjection installs transient storage faults before the
// first remote query. The skyline's BBS pass reads through them; the shard
// folds read rows, not index pages. So once the skyline is resident the
// remote query must return the unfaulted answer and move FaultStats by
// exactly what it read itself: nothing.
func TestShardedFaultInjection(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	opts := Options{K: 4, Seed: 7, Shards: 4, Remote: &RemoteOptions{Workers: urls}}
	clean, err := Generate(Independent, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(Independent, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InjectFaults(FaultPolicy{Rate: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SkylineSize(); err != nil {
		t.Fatal(err)
	}
	injectedBefore, retriesBefore := ds.FaultStats()
	if injectedBefore == 0 || retriesBefore == 0 {
		t.Fatalf("skyline pass: %d faults injected, %d retries; want both positive", injectedBefore, retriesBefore)
	}
	res, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
		t.Errorf("faulted remote indexes = %v, want %v", res.Indexes, want.Indexes)
	}
	if err := allShardsServed(res); err != nil {
		t.Fatal(err)
	}
	if res.Remote.Remote != 4 {
		t.Errorf("remote stats = %+v, want all 4 shards served by the fleet", res.Remote)
	}
	if injected, retries := ds.FaultStats(); injected != injectedBefore || retries != retriesBefore {
		t.Errorf("remote query moved FaultStats by %d faults and %d retries, want 0 and 0",
			injected-injectedBefore, retries-retriesBefore)
	}
	if err := ds.InjectFaults(FaultPolicy{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCancelledContext covers the cancellation seam of a remote
// query end to end through the public API.
func TestShardedCancelledContext(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Seed: 7, Shards: 4, Remote: &RemoteOptions{Workers: urls}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.DiversifyContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The dataset stays healthy: a live context succeeds afterwards.
	res, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := allShardsServed(res); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrent hammers one dataset with concurrent remote queries
// at different shard counts and requires every answer to equal the
// unsharded one. Run under -race this also pins the executor's shared
// per-node state.
func TestShardedConcurrent(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
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
			res, err := ds.Diversify(Options{K: 4, Seed: 7, Shards: shards, NoCache: true, Remote: &RemoteOptions{Workers: urls}})
			if err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(res.Indexes) != fmt.Sprint(want.Indexes) {
				errs <- fmt.Errorf("s%d: indexes = %v, want %v", shards, res.Indexes, want.Indexes)
			}
			if err := allShardsServed(res); err != nil {
				errs <- fmt.Errorf("s%d: %v", shards, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardedBuildsNoPlan: in process, Shards changes nothing — before and
// after a write — and the query answers like the unsharded one.
func TestShardedBuildsNoPlan(t *testing.T) {
	ds, err := Generate(Independent, 3000, 3, 5)
	if err != nil {
		t.Fatal(err)
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
	}
	check("before insert")
	if _, err := ds.Insert([]float64{0.001, 0.002, 0.003}); err != nil {
		t.Fatal(err)
	}
	check("after insert")
}
