package skydiver

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"skydiver/internal/cluster"
)

// startShardWorkers brings up n in-process skyshardd-equivalent workers and
// returns their base URLs plus the Worker handles for stats assertions.
func startShardWorkers(t *testing.T, n int) ([]*cluster.Worker, []string) {
	t.Helper()
	workers := make([]*cluster.Worker, n)
	urls := make([]string, n)
	for i := range workers {
		w, err := cluster.NewWorker(cluster.WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		workers[i] = w
		urls[i] = srv.URL
	}
	return workers, urls
}

// TestRemoteMatchesSharded is the acceptance pin: for shard counts {1, 2, 4}
// a query dispatched to the worker fleet selects the same points with the
// same objective, and charges the same I/O, as the unsharded in-process run,
// for both sharders and both signature algorithms. Remote and local runs use
// separate Dataset handles so the comparison never rides the shared
// fingerprint cache. On IND-300-3D at seed 5 a scan of only the rows with a
// dominator would charge a page fewer than SigGen-IF's scan of the file.
func TestRemoteMatchesSharded(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	algos := []struct {
		name string
		opts Options
	}{
		{"MH", Options{K: 5, Seed: 7, SignatureSize: 32}},
		{"LSH", Options{K: 5, Seed: 7, SignatureSize: 32, Algorithm: LSH}},
	}
	datasets := []struct {
		dist Distribution
		n    int
		seed int64
	}{
		{Anticorrelated, 400, 11},
		{Independent, 300, 5},
	}
	for _, a := range algos {
		for _, sharder := range []string{"grid", "angle"} {
			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/s%d", a.name, sharder, shards), func(t *testing.T) {
					for _, spec := range datasets {
						local, err := Generate(spec.dist, spec.n, 3, spec.seed)
						if err != nil {
							t.Fatal(err)
						}
						want, err := local.Diversify(a.opts)
						if err != nil {
							t.Fatal(err)
						}

						remote, err := Generate(spec.dist, spec.n, 3, spec.seed)
						if err != nil {
							t.Fatal(err)
						}
						ropts := a.opts
						ropts.Shards = shards
						ropts.Remote = &RemoteOptions{Workers: urls, Sharder: sharder}
						got, err := remote.Diversify(ropts)
						if err != nil {
							t.Fatal(err)
						}

						if err := sameAnswer(got, want); err != nil {
							t.Errorf("%v-%d: %v", spec.dist, spec.n, err)
						}
						if got.Remote == nil {
							t.Fatal("Result.Remote is nil on a remote query")
						}
						if got.Remote.Shards != shards || got.Remote.Remote != shards {
							t.Errorf("remote stats = %+v, want all %d shards remote", got.Remote, shards)
						}
						if !got.Remote.SkylineVerified {
							t.Error("SkylineVerified = false")
						}
						if len(got.Remote.Missing) != 0 || got.Remote.Local != 0 {
							t.Errorf("unexpected missing/local shards: %+v", got.Remote)
						}
					}
				})
			}
		}
	}
}

// TestRemoteFingerprintCacheSkipsFleet: the first remote query populates the
// shared fingerprint cache (the fold is exact, so it is safe there); a second
// identical query is served from cache without touching the fleet, and its
// Result.Remote is nil because no remote work happened.
func TestRemoteFingerprintCacheSkipsFleet(t *testing.T) {
	workers, urls := startShardWorkers(t, 2)
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2,
		Remote: &RemoteOptions{Workers: urls}}
	first, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.FingerprintCached || first.Remote == nil {
		t.Fatalf("first query: cached=%v remote=%v", first.FingerprintCached, first.Remote)
	}
	folds := workers[0].Stats().Folds + workers[1].Stats().Folds
	second, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FingerprintCached {
		t.Error("second query missed the fingerprint cache")
	}
	if second.Remote != nil {
		t.Errorf("second query has Remote stats %+v, want nil", second.Remote)
	}
	if after := workers[0].Stats().Folds + workers[1].Stats().Folds; after != folds {
		t.Errorf("fleet served %d extra folds on a cache hit", after-folds)
	}
	if fmt.Sprint(first.Indexes) != fmt.Sprint(second.Indexes) {
		t.Errorf("cache hit changed the answer: %v vs %v", second.Indexes, first.Indexes)
	}
}

// TestRemoteDeadFleetFallsBackLocally: with the entire fleet unreachable the
// coordinator recomputes every shard itself and the answer is still exact,
// I/O included.
func TestRemoteDeadFleetFallsBackLocally(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds2.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2,
		Remote: &RemoteOptions{Workers: []string{dead.URL}, MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(res, want); err != nil {
		t.Error(err)
	}
	if res.Degraded {
		t.Error("local fallback must not be marked degraded")
	}
	if res.Remote == nil || res.Remote.Local != 2 || res.Remote.Remote != 0 {
		t.Errorf("remote stats = %+v, want 2 local shards", res.Remote)
	}
}

// TestRemoteUnavailableAndDegraded covers the explicit opt-outs: with
// NoLocalFallback a dead fleet fails the query with ErrRemoteUnavailable;
// adding AllowDegraded serves the labeled degraded answer instead.
func TestRemoteUnavailableAndDegraded(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ro := &RemoteOptions{Workers: []string{dead.URL}, MaxRetries: 0, NoLocalFallback: true}
	_, err = ds.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2, Remote: ro})
	if !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}

	res, err := ds.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2,
		AllowDegraded: true, Remote: ro})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedReason != DegradedRemoteShards {
		t.Fatalf("degraded = %v reason = %q, want %q", res.Degraded, res.DegradedReason, DegradedRemoteShards)
	}
	if res.Remote == nil || len(res.Remote.Missing) != 2 {
		t.Fatalf("remote stats = %+v, want 2 missing shards", res.Remote)
	}
	if len(res.Indexes) != 4 {
		t.Fatalf("degraded answer has %d points, want K=4", len(res.Indexes))
	}

	// The degraded fold must not have poisoned the shared cache: the same
	// query without Remote recomputes exactly.
	want, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := want.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ds.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lres.FingerprintCached {
		t.Error("exact query was served from the degraded query's cache entry")
	}
	if fmt.Sprint(lres.Indexes) != fmt.Sprint(wres.Indexes) {
		t.Errorf("post-degraded exact query = %v, want %v", lres.Indexes, wres.Indexes)
	}
}

// TestRemoteOptionValidation pins the rejected combinations: Budget+Remote,
// an empty worker list, unknown sharders, non-Generate datasets, and
// Greedy/Exact algorithms simply ignoring Remote.
func TestRemoteOptionValidation(t *testing.T) {
	_, urls := startShardWorkers(t, 1)
	ds, err := Generate(Independent, 200, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{K: 3, Seed: 1, SignatureSize: 16}

	opts := base
	opts.Remote = &RemoteOptions{Workers: urls}
	opts.Budget = Budget{MaxPageReads: 1}
	if _, err := ds.Diversify(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Budget+Remote: err = %v, want ErrInvalidOptions", err)
	}

	opts = base
	opts.Remote = &RemoteOptions{}
	if _, err := ds.Diversify(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("empty workers: err = %v, want ErrInvalidOptions", err)
	}

	opts = base
	opts.Remote = &RemoteOptions{Workers: urls, Sharder: "mystery"}
	if _, err := ds.Diversify(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("unknown sharder: err = %v, want ErrInvalidOptions", err)
	}

	manual, err := NewDataset("manual", [][]float64{{1, 2}, {2, 1}, {3, 3}}, []Pref{Min, Min})
	if err != nil {
		t.Fatal(err)
	}
	opts = base
	opts.K = 2
	opts.Remote = &RemoteOptions{Workers: urls}
	if _, err := manual.Diversify(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("non-Generate dataset: err = %v, want ErrInvalidOptions", err)
	}

	// Greedy ignores Remote entirely — it has no Phase 1 to distribute.
	opts = base
	opts.Algorithm = Greedy
	opts.Remote = &RemoteOptions{Workers: []string{"http://127.0.0.1:1"}}
	res, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote != nil {
		t.Errorf("Greedy produced Remote stats %+v", res.Remote)
	}
}
