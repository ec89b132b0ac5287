package core

import (
	"context"
	"fmt"
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
	"skydiver/internal/shard"
	"skydiver/internal/skyline"
)

// This file holds the partition-parallel skyline: a shard.Sharder carves
// the dataset into N row sets, each shard computes its local skyline in its
// own isolated rtree.Session, and MergeShardSkylines recombines them
// exactly. The union of local skylines contains the global skyline (a point
// dominated by anything is dominated by some local skyline member of the
// dominator's shard, by transitivity), so re-filtering the union for
// cross-shard dominance, with the same strict-dominance test and
// oldest-equal-twin tie-break as the scan algorithms, yields the global
// skyline bit-identically.
//
// No query path builds a ShardPlan: the dataset's skyline is resident, and
// remote execution cuts its shards as row ranges (PageRange, FoldRange).
// The plan stays as the API the repository benchmark's sharded route
// calls.

// PlanShard is one shard of a ShardPlan: its global row ids and its local
// skyline.
type PlanShard struct {
	// Rows are the shard's global row ids, ascending.
	Rows []int
	// Sky is the shard's local skyline in global row ids, ascending.
	Sky []int
}

// ShardPlan is the partition-parallel skyline of one dataset version: the
// shards, their local skylines and the merged global skyline. A plan is
// immutable once built and safe for concurrent use.
type ShardPlan struct {
	// Sharder names the partitioning scheme that produced the plan.
	Sharder string
	// Epoch is the dataset mutation epoch the plan was built against;
	// owners must discard plans whose epoch is stale.
	Epoch uint64
	// Shards holds the per-shard state.
	Shards []PlanShard
	// Sky is the merged global skyline, ascending — bit-identical to the
	// unsharded skyline of the same dataset version.
	Sky []int
	// Retries counts the re-reads the shard skylines spent recovering
	// injected transient faults while the plan was built.
	Retries int64
}

// BuildShardPlan partitions ds into n shards with sh, computes each
// shard's local skyline with BBS through a private session on an R*-tree
// over a shard-local copy of its rows, and merges. The copy and the tree
// are dropped once the shard's skyline is known. configure, when non-nil,
// runs on every freshly built shard tree before any I/O (the library uses
// it to copy the main index's fault injector, so injected storage faults
// reach shard reads too). epoch is stamped into the plan for staleness
// checks by the owner.
func BuildShardPlan(ctx context.Context, ds *data.Dataset, sh shard.Sharder, n int, epoch uint64, configure func(*rtree.Tree)) (*ShardPlan, error) {
	parts, err := sh.Partition(ds, n)
	if err != nil {
		return nil, err
	}
	plan := &ShardPlan{Sharder: sh.Name(), Epoch: epoch, Shards: make([]PlanShard, len(parts))}
	locals := make([][]int, len(parts))
	for i, rows := range parts {
		sky, retries, err := localSkyline(ctx, ds, i, rows, configure)
		plan.Retries += retries
		if err != nil {
			return nil, err
		}
		plan.Shards[i] = PlanShard{Rows: rows, Sky: sky}
		locals[i] = sky
	}
	plan.Sky = MergeShardSkylines(ds, locals)
	return plan, nil
}

// localSkyline computes the skyline of shard i, whose global row ids are
// rows, with BBS through a private session on a fresh R*-tree over a
// shard-local copy of those rows, on which configure (when non-nil) runs
// before any I/O, and returns it in global row ids with the retries the
// session spent. An empty shard has a nil skyline.
func localSkyline(ctx context.Context, ds *data.Dataset, i int, rows []int, configure func(*rtree.Tree)) ([]int, int64, error) {
	if len(rows) == 0 {
		return nil, 0, nil
	}
	sub, err := ds.Subset(fmt.Sprintf("%s/shard%d", ds.Name(), i), rows)
	if err != nil {
		return nil, 0, err
	}
	tr, err := rtree.BulkLoad(sub)
	if err != nil {
		return nil, 0, fmt.Errorf("core: shard %d index: %w", i, err)
	}
	tr.Reopen(pager.DefaultCacheFraction)
	if configure != nil {
		configure(tr)
	}
	sess := tr.NewSession(pager.DefaultCacheFraction).Bind(ctx)
	local, err := skyline.ComputeBBSCtx(ctx, sess)
	if err != nil {
		return nil, sess.Stats().Retries, fmt.Errorf("core: shard %d skyline: %w", i, err)
	}
	return rebaseRows(local, rows), sess.Stats().Retries, nil
}

// rebaseRows maps shard-local row ids to absolute ids via the shard's row
// list. rows is ascending, so an ascending local list stays ascending.
func rebaseRows(local []int, rows []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = rows[l]
	}
	return out
}

// MergeShardSkylines unions per-shard local skylines and re-filters
// cross-shard dominance with the prepared-skyline kernels, returning the
// global skyline in ascending row order. The tie-break matches the scan
// algorithms: of equal twins, only the lowest row id survives. locals may
// hold nils (empty shards); every id must be live.
func MergeShardSkylines(ds *data.Dataset, locals [][]int) []int {
	var union []int
	for _, l := range locals {
		union = append(union, l...)
	}
	sort.Ints(union)
	if len(union) == 0 {
		return []int{}
	}
	pr := prepareSkyline(ds, union).probe()

	// Oldest-equal-twin filter: equal points share an L1 norm, so sorting
	// candidate positions by (L1, id) confines the Equal checks to runs of
	// identical norms — duplicates are rare, the runs are tiny.
	byL1 := make([]int, len(union))
	l1s := make([]float64, len(union))
	for i, id := range union {
		byL1[i] = i
		l1s[i] = geom.L1(ds.Point(id))
	}
	sort.Slice(byL1, func(a, b int) bool {
		if l1s[byL1[a]] != l1s[byL1[b]] {
			return l1s[byL1[a]] < l1s[byL1[b]]
		}
		return union[byL1[a]] < union[byL1[b]]
	})
	twin := make([]bool, len(union))
	for a := 0; a < len(byL1); {
		b := a + 1
		for b < len(byL1) && l1s[byL1[b]] == l1s[byL1[a]] {
			b++
		}
		for x := a; x < b; x++ {
			for y := a; y < x; y++ {
				if union[byL1[y]] < union[byL1[x]] && geom.Equal(ds.Point(union[byL1[y]]), ds.Point(union[byL1[x]])) {
					twin[byL1[x]] = true
					break
				}
			}
		}
		a = b
	}

	out := make([]int, 0, len(union))
	for i, id := range union {
		if twin[i] {
			continue
		}
		if !pr.dominatorSet(pr.set, ds.Point(id)) {
			out = append(out, id)
		}
	}
	return out
}

// SigGenShardedCtx is SigGen-IF over the plan's merged skyline: the
// index-free range fold of every row (see foldAll), charged as SigGen-IF's
// sequential scan of the whole file. The output is bit-identical to SigGenIF
// on ds — same slot values, same domination scores, same I/O — because row
// ids are absolute and per-slot minima commute. 0 or 1 workers fold
// sequentially and <0 uses GOMAXPROCS; the shard count does not change the
// work.
func SigGenShardedCtx(ctx context.Context, plan *ShardPlan, ds *data.Dataset, fam *minhash.Family, workers int) (*Fingerprint, error) {
	if workers == 0 {
		workers = 1
	}
	return SigGenIFParallelCtx(ctx, ds, plan.Sky, fam, workers)
}
