package core

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/shard"
	"skydiver/internal/skyline"
)

var shardCounts = []int{1, 2, 3, 4, 8}

// shardTestDatasets returns datasets covering the distributions, duplicate
// points (equal-twin tie-breaks) and tombstones.
func shardTestDatasets() map[string]*data.Dataset {
	withTwins := data.Independent(1500, 3, 11)
	for i := 0; i < 40; i++ {
		p := append([]float64(nil), withTwins.Point(i*7)...)
		withTwins.Append(p)
	}
	withDead := data.Anticorrelated(1200, 3, 5)
	for i := 0; i < 1200; i += 9 {
		withDead.MarkDeleted(i)
	}
	return map[string]*data.Dataset{
		"ind":   data.Independent(2000, 3, 7),
		"corr":  data.Correlated(2000, 4, 7),
		"anti":  data.Anticorrelated(1000, 2, 7),
		"twins": withTwins,
		"dead":  withDead,
	}
}

// TestShardedSkylineIdentical pins the merge's skyline guarantee: for every
// scan algorithm and shard count, merging the local skylines the algorithm
// computes on the grid shards reproduces the unsharded skyline bit for bit.
// BBS local skylines are BuildShardPlan's, pinned by
// TestBuildShardPlanSkyline.
func TestShardedSkylineIdentical(t *testing.T) {
	algos := []struct {
		name    string
		compute func(*data.Dataset) []int
	}{
		{"naive", skyline.ComputeNaive}, {"bnl", skyline.ComputeBNL},
		{"sfs", skyline.ComputeSFS}, {"dc", skyline.ComputeDC},
	}
	for name, ds := range shardTestDatasets() {
		want := skyline.ComputeSFS(ds)
		for _, n := range shardCounts {
			parts, err := shard.Grid{}.Partition(ds, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range algos {
				locals := make([][]int, n)
				for i, rows := range parts {
					if len(rows) == 0 {
						continue
					}
					sub, err := ds.Subset("shard", rows)
					if err != nil {
						t.Fatal(err)
					}
					for _, l := range algo.compute(sub) {
						locals[i] = append(locals[i], rows[l])
					}
				}
				if got := MergeShardSkylines(ds, locals); !equalIntSlices(got, want) {
					t.Errorf("%s/%v/n=%d: merged skyline %d points, want %d (diverged)",
						name, algo.name, n, len(got), len(want))
				}
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildShardPlanSkyline checks the plan's merged skyline against BBS on
// the whole dataset, for every shard count.
func TestBuildShardPlanSkyline(t *testing.T) {
	for name, ds := range shardTestDatasets() {
		want := skyline.ComputeSFS(ds)
		for _, n := range shardCounts {
			plan, err := BuildShardPlan(context.Background(), ds, shard.Grid{}, n, 3, nil)
			if err != nil {
				t.Fatalf("%s/n=%d: %v", name, n, err)
			}
			if plan.Epoch != 3 || plan.Sharder != "grid" || len(plan.Shards) != n {
				t.Fatalf("%s/n=%d: plan metadata %+v", name, n, plan)
			}
			if !equalIntSlices(plan.Sky, want) {
				t.Errorf("%s/n=%d: plan skyline diverged", name, n)
			}
		}
	}
}

// TestSigGenShardedIdentical pins the tentpole signature guarantee: the
// fingerprint over a plan's merged skyline — matrix slots, domination scores
// and I/O — is bit-identical to the unsharded index-free pass, for every
// shard count, partitioning and worker count.
func TestSigGenShardedIdentical(t *testing.T) {
	for name, ds := range shardTestDatasets() {
		sky := skyline.ComputeSFS(ds)
		fam, _ := minhash.NewFamily(64, 9)
		want, err := SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range shardCounts {
			plan, err := BuildShardPlan(context.Background(), ds, shard.Grid{}, n, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := SigGenShardedCtx(context.Background(), plan, ds, fam, workers)
				if err != nil {
					t.Fatalf("%s/n=%d/w=%d: %v", name, n, workers, err)
				}
				for c := range sky {
					if got.DomScore[c] != want.DomScore[c] {
						t.Fatalf("%s/n=%d/w=%d: DomScore[%d] = %v, want %v",
							name, n, workers, c, got.DomScore[c], want.DomScore[c])
					}
					gc, wc := got.Matrix.Column(c), want.Matrix.Column(c)
					for s := range wc {
						if gc[s] != wc[s] {
							t.Fatalf("%s/n=%d/w=%d: col %d slot %d = %d, want %d",
								name, n, workers, c, s, gc[s], wc[s])
						}
					}
				}
				if got.IO != want.IO {
					t.Errorf("%s/n=%d: sharded fingerprint charged %+v, SigGen-IF %+v", name, n, got.IO, want.IO)
				}
			}
		}
	}
}

// TestShardedCancellation covers both cancellation seams: plan construction
// (per-shard BBS sessions poll the context) and the signature fold (polled
// once per data page).
func TestShardedCancellation(t *testing.T) {
	ds := data.Independent(3000, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildShardPlan(ctx, ds, shard.Grid{}, 4, 0, nil); err == nil {
		t.Error("BuildShardPlan with cancelled context succeeded")
	}
	plan, err := BuildShardPlan(context.Background(), ds, shard.Grid{}, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, _ := minhash.NewFamily(64, 9)
	if _, err := SigGenShardedCtx(ctx, plan, ds, fam, 1); err == nil {
		t.Error("SigGenShardedCtx with cancelled context succeeded")
	}
}

// TestMergeShardSkylinesTwins pins the oldest-equal-twin tie-break across
// shard boundaries: when equal points land in different shards, both local
// skylines contain their copy and only the lowest row id may survive.
func TestMergeShardSkylinesTwins(t *testing.T) {
	rows := [][]float64{
		{1, 9}, // 0: skyline
		{1, 9}, // 1: equal twin, must lose to 0
		{9, 1}, // 2: skyline
		{5, 5}, // 3: skyline
		{6, 6}, // 4: dominated by 3
	}
	ds, err := data.FromRows("twins", rows)
	if err != nil {
		t.Fatal(err)
	}
	got := MergeShardSkylines(ds, [][]int{{0, 3}, {1, 2, 4}})
	if !equalIntSlices(got, []int{0, 2, 3}) {
		t.Errorf("merged = %v, want [0 2 3]", got)
	}
}

// TestGridPartition pins the Sharder contract: exactly n shards, ascending,
// disjoint, covering every live row, tombstones excluded.
func TestGridPartition(t *testing.T) {
	for name, ds := range shardTestDatasets() {
		for _, n := range []int{1, 2, 3, 4, 6, 7, 8, 16} {
			parts, err := shard.Grid{}.Partition(ds, n)
			if err != nil {
				t.Fatalf("%s/n=%d: %v", name, n, err)
			}
			if len(parts) != n {
				t.Fatalf("%s/n=%d: got %d shards", name, n, len(parts))
			}
			seen := make(map[int]bool)
			total := 0
			for _, rows := range parts {
				if !sort.IntsAreSorted(rows) {
					t.Fatalf("%s/n=%d: shard not ascending", name, n)
				}
				for _, r := range rows {
					if seen[r] {
						t.Fatalf("%s/n=%d: row %d assigned twice", name, n, r)
					}
					if ds.Deleted(r) {
						t.Fatalf("%s/n=%d: tombstoned row %d assigned", name, n, r)
					}
					seen[r] = true
				}
				total += len(rows)
			}
			if total != ds.LiveLen() {
				t.Fatalf("%s/n=%d: covered %d rows, want %d live", name, n, total, ds.LiveLen())
			}
		}
	}
	if _, err := (shard.Grid{}).Partition(data.Independent(10, 2, 1), 0); err == nil {
		t.Error("Partition(0) succeeded")
	}
}

// TestShardedFoldWorkers pins the documented Workers semantics of
// SigGenShardedCtx: 0 or 1 folds sequentially on the calling goroutine, <0
// uses GOMAXPROCS, and no more workers start than the data has pages, one
// page-aligned range each.
func TestShardedFoldWorkers(t *testing.T) {
	ds := data.Independent(2000, 3, 7)
	plan, err := BuildShardPlan(context.Background(), ds, shard.Grid{}, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sky := plan.Sky
	fam, _ := minhash.NewFamily(16, 1)
	want, err := SigGenIF(ds, sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	perPage := pager.NewSequentialCounter(8*ds.Dims() + 4).RecordsPerPage()
	pages := (ds.Len() + perPage - 1) / perPage
	// ranges is the number of page ranges w workers fold, one each; a
	// single range runs on the calling goroutine.
	ranges := func(w int) int {
		if w = min(w, pages); w <= 1 {
			return 0
		}
		return w
	}
	var started atomic.Int32
	workerTestHook = func(int) { started.Add(1) }
	defer func() { workerTestHook = nil }()
	for _, c := range []struct{ workers, want int }{
		{0, 0},
		{1, 0},
		{3, 3},
		{-1, ranges(runtime.GOMAXPROCS(0))},
		{1 << 16, pages},
	} {
		started.Store(0)
		got, err := SigGenShardedCtx(context.Background(), plan, ds, fam, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(started.Load()); n != c.want {
			t.Errorf("workers=%d: started %d workers, want %d", c.workers, n, c.want)
		}
		for col := range sky {
			if !slices.Equal(got.Matrix.Column(col), want.Matrix.Column(col)) || got.DomScore[col] != want.DomScore[col] {
				t.Fatalf("workers=%d: column %d differs from SigGen-IF", c.workers, col)
			}
		}
		if got.IO != want.IO {
			t.Errorf("workers=%d: charged %+v, SigGen-IF %+v", c.workers, got.IO, want.IO)
		}
	}
}
