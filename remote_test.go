package skydiver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// allShardsServed reports an error unless res is a remote result whose every
// shard was served, by the fleet or by the coordinator.
func allShardsServed(res *Result) error {
	switch {
	case res.Remote == nil:
		return errors.New("Result.Remote is nil on a remote query")
	case res.Remote.Remote+res.Remote.Local != res.Remote.Shards:
		return fmt.Errorf("remote stats %+v: remote + local != shards", res.Remote)
	}
	return nil
}

// TestRemoteMatchesSharded is the acceptance pin: for shard counts {1, 2, 4}
// a query dispatched to the worker fleet selects the same points with the
// same objective, and charges the same I/O, as the unsharded in-process run,
// for both signature algorithms. Remote and local runs use separate Dataset
// handles so the comparison never rides the shared fingerprint cache. On
// IND-300-3D at seed 5 a scan of only the rows with a dominator would
// charge a page fewer than SigGen-IF's scan of the file. The subtest names
// keep the "grid" segment of the partitioning they ran under when the
// sharder was a knob, so their results stay comparable with older runs.
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
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/grid/s%d", a.name, shards), func(t *testing.T) {
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
					ropts.Remote = &RemoteOptions{Workers: urls}
					got, err := remote.Diversify(ropts)
					if err != nil {
						t.Fatal(err)
					}

					if err := sameAnswer(got, want); err != nil {
						t.Errorf("%v-%d: %v", spec.dist, spec.n, err)
					}
					if err := allShardsServed(got); err != nil {
						t.Fatal(err)
					}
					if got.Remote.Shards != shards || got.Remote.Remote != shards {
						t.Errorf("remote stats = %+v, want all %d shards remote", got.Remote, shards)
					}
				}
			})
		}
	}
}

// TestRemoteShardsBeyondPages: a shard is a page range, so more shards than
// data pages leaves some ranges empty (IND-300-3D has 3 pages), and a shard
// count that does not divide the pages gives ranges of unequal length.
// Either way every shard is one fold served by the fleet and the answer is
// bit-identical to the in-process run.
func TestRemoteShardsBeyondPages(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	for _, c := range []struct {
		n, shards int
	}{{300, 8}, {300, 2}, {2000, 3}} {
		local, err := Generate(Independent, c.n, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := Generate(Independent, c.n, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: c.shards,
			Remote: &RemoteOptions{Workers: urls}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(got, want); err != nil {
			t.Errorf("n=%d s%d: %v", c.n, c.shards, err)
		}
		if err := allShardsServed(got); err != nil {
			t.Fatalf("n=%d s%d: %v", c.n, c.shards, err)
		}
		if got.Remote.Remote != c.shards {
			t.Errorf("n=%d s%d: remote stats = %+v, want all shards served by the fleet", c.n, c.shards, got.Remote)
		}
	}
}

// TestRemoteOneFoldPerShard reads the workers' /stats: an uncached remote
// query makes exactly one sigfold call per shard, and a worker serves no
// other shard RPC (/shard/skyline is 404).
func TestRemoteOneFoldPerShard(t *testing.T) {
	_, urls := startShardWorkers(t, 2)
	folds := func() int64 {
		t.Helper()
		var total int64
		for _, u := range urls {
			resp, err := http.Get(u + cluster.PathStats)
			if err != nil {
				t.Fatal(err)
			}
			var st cluster.WorkerStats
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			total += st.Folds
		}
		return total
	}
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		before := folds()
		res, err := ds.Diversify(Options{K: 4, Seed: 7, Shards: shards, NoCache: true, Remote: &RemoteOptions{Workers: urls}})
		if err != nil {
			t.Fatal(err)
		}
		if err := allShardsServed(res); err != nil {
			t.Fatalf("s%d: %v", shards, err)
		}
		if res.Remote.Remote != shards {
			t.Fatalf("s%d: remote stats = %+v", shards, res.Remote)
		}
		if n := folds() - before; n != int64(shards) {
			t.Errorf("s%d: workers served %d sigfold calls, want %d", shards, n, shards)
		}
	}
	resp, err := http.Post(urls[0]+"/shard/skyline", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/shard/skyline: status %d, want 404", resp.StatusCode)
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
	if first.FingerprintCached {
		t.Fatal("first query was served from the fingerprint cache")
	}
	if err := allShardsServed(first); err != nil {
		t.Fatal(err)
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
// I/O included. AllowDegraded changes nothing: a remote answer is never
// degraded.
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
	res, err := ds2.Diversify(Options{K: 4, Seed: 3, SignatureSize: 16, Shards: 2, AllowDegraded: true,
		Remote: &RemoteOptions{Workers: []string{dead.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(res, want); err != nil {
		t.Error(err)
	}
	if res.Degraded || res.DegradedReason != "" {
		t.Errorf("local fallback marked degraded (%q)", res.DegradedReason)
	}
	if err := allShardsServed(res); err != nil {
		t.Fatal(err)
	}
	if res.Remote.Local != 2 || res.Remote.Remote != 0 {
		t.Errorf("remote stats = %+v, want 2 local shards", res.Remote)
	}
}

// TestRemoteOptionValidation pins the rejected combinations: Budget+Remote,
// an empty worker list, non-Generate datasets, and Greedy/Exact algorithms
// simply ignoring Remote.
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
