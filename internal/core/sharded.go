package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
	"skydiver/internal/shard"
	"skydiver/internal/skyline"
)

// This file implements the partitioned execution layer: a shard.Sharder
// carves the dataset into N row sets, each shard computes its local skyline
// in its own isolated rtree.Session, and a merge operator recombines them —
// the single-process form of the partition-parallel skyline family, shaped
// so a multi-node backend (internal/cluster) can stand behind the same
// types.
//
// Everything the merge does is exact:
//
//   - Skylines: the union of local skylines contains the global skyline
//     (a point dominated by anything is dominated by some local skyline
//     member of the dominator's shard, by transitivity), so re-filtering
//     the union for cross-shard dominance — with the same strict-dominance
//     test and oldest-equal-twin tie-break as the scan algorithms — yields
//     the global skyline bit-identically.
//
//   - Signatures: SigGen-IF hashes *global* row ids, and a signature
//     column is a per-slot minimum over the rows it dominates, which is
//     commutative and associative. Each shard therefore folds its own row
//     list into a private fingerprint (ShardFingerprintLocal, the row fold
//     of parallel.go), and the merge takes per-slot minima across shards
//     and sums the domination scores. The result is bit-identical to the
//     unsharded SigGen-IF pass for any shard count and any partitioning.
//
// In one process the dataset's skyline is already resident and the row
// kernel answers a row in a few word operations, so the sharded route runs
// the index-free range fold (see SigGenShardedCtx) and builds no plan; a
// ShardPlan is the state of remote execution, where the shards' local
// skylines are cross-checked against the coordinator's merge.

// PlanShard is one shard of a ShardPlan: its global row ids, the local
// sub-dataset and R*-tree they were copied into, and the shard's local
// skyline. Local row l of Sub corresponds to global row Rows[l].
type PlanShard struct {
	// Rows are the shard's global row ids, ascending.
	Rows []int
	// Sub is the shard-local copy of those rows (fully live).
	Sub *data.Dataset
	// Tree is the shard's own R*-tree over Sub (nil for an empty shard);
	// its row ids are Sub indexes. Shard queries open private sessions on
	// it, so fault injection and cancellation flow through the same I/O
	// path as the main index.
	Tree *rtree.Tree
	// Sky is the shard's local skyline in global row ids, ascending.
	Sky []int

	scanned int // rows with a dominator in the merged skyline: what its fold folds
}

// ShardPlan is the cached remote-execution state of one dataset version:
// the shards, their local skylines and the merged global skyline. A plan is
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

	ds *data.Dataset // the partitioned dataset, for the per-shard folds
}

// BuildShardPlan partitions ds into n shards with sh, computes each
// shard's local skyline with BBS through a private session on the shard's
// own R*-tree, merges, and counts each shard's rows dominated by the merged
// skyline (its share of the synthetic scan accounting, ShardScanned).
// configure, when non-nil, runs on every freshly built shard tree before
// any I/O (the library uses it to copy the main index's fault injector, so
// injected storage faults reach shard reads too). epoch is stamped into
// the plan for staleness checks by the owner.
func BuildShardPlan(ctx context.Context, ds *data.Dataset, sh shard.Sharder, n int, epoch uint64, configure func(*rtree.Tree)) (*ShardPlan, error) {
	shards, err := buildShardSets(ds, sh, n)
	if err != nil {
		return nil, err
	}
	plan := &ShardPlan{Sharder: sh.Name(), Epoch: epoch, Shards: shards, ds: ds}
	for i := range plan.Shards {
		s := &plan.Shards[i]
		if len(s.Rows) == 0 {
			continue
		}
		tr, err := rtree.BulkLoad(s.Sub)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d index: %w", i, err)
		}
		tr.Reopen(pager.DefaultCacheFraction)
		if configure != nil {
			configure(tr)
		}
		s.Tree = tr
		sess := tr.NewSession(pager.DefaultCacheFraction).Bind(ctx)
		local, err := skyline.ComputeBBSCtx(ctx, sess)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d skyline: %w", i, err)
		}
		s.Sky = rebaseRows(local, s.Rows)
	}
	locals := make([][]int, len(plan.Shards))
	for i := range plan.Shards {
		locals[i] = plan.Shards[i].Sky
	}
	plan.Sky = MergeShardSkylines(ds, locals)
	if len(plan.Sky) > 0 {
		f := newRowFold(ds, plan.Sky, nil)
		pr := f.prep.probe()
		for i := range plan.Shards {
			s := &plan.Shards[i]
			for _, r := range s.Rows {
				if !f.inSky.get(r) && pr.dominatorSet(pr.set, ds.Point(r)) {
					s.scanned++
				}
			}
		}
	}
	return plan, nil
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

// buildShardSets partitions ds and materializes each shard's sub-dataset.
func buildShardSets(ds *data.Dataset, sh shard.Sharder, n int) ([]PlanShard, error) {
	parts, err := sh.Partition(ds, n)
	if err != nil {
		return nil, err
	}
	shards := make([]PlanShard, len(parts))
	for i, rows := range parts {
		sub, err := ds.Subset(fmt.Sprintf("%s/shard%d", ds.Name(), i), rows)
		if err != nil {
			return nil, err
		}
		shards[i] = PlanShard{Rows: rows, Sub: sub}
	}
	return shards, nil
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

// ShardedSkylineCtx partitions ds with sh, computes each shard's local
// skyline with algo — through a private session on a shard-local R*-tree
// for BBS, directly on the sub-dataset otherwise — and merges. It exists
// for verification: the result is bit-identical to running algo unsharded,
// for every algorithm and shard count.
func ShardedSkylineCtx(ctx context.Context, ds *data.Dataset, sh shard.Sharder, n int, algo skyline.Algorithm) ([]int, error) {
	shards, err := buildShardSets(ds, sh, n)
	if err != nil {
		return nil, err
	}
	locals := make([][]int, len(shards))
	for i := range shards {
		s := &shards[i]
		if len(s.Rows) == 0 {
			continue
		}
		var reader rtree.Reader
		if algo == skyline.BBS {
			tr, err := rtree.BulkLoad(s.Sub)
			if err != nil {
				return nil, err
			}
			tr.Reopen(pager.DefaultCacheFraction)
			reader = tr.NewSession(pager.DefaultCacheFraction).Bind(ctx)
		}
		local, err := skyline.ComputeAnyCtx(ctx, s.Sub, algo, reader)
		if err != nil {
			return nil, err
		}
		locals[i] = rebaseRows(local, s.Rows)
	}
	return MergeShardSkylines(ds, locals), nil
}

// SigGenSharded is SigGenShardedCtx without cancellation.
func SigGenSharded(plan *ShardPlan, ds *data.Dataset, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return SigGenShardedCtx(context.Background(), plan, ds, fam, workers)
}

// SigGenShardedCtx runs Phase 1 of the sharded route against the plan's
// merged skyline: the index-free range fold of every row (see foldAll),
// with the sharded route's accounting. The output is bit-identical to
// SigGenIF on the whole dataset — same slot values, same domination scores
// — and to the min-merge of every shard's ShardFingerprint, because row ids
// are absolute and per-slot minima commute. As for every Workers setting, 0
// or 1 is sequential and <0 uses GOMAXPROCS; the shard count does not
// change the work.
//
// I/O is charged as a sequential scan of the rows the fold hashes — those
// with at least one dominator, summed over the shards — rather than of the
// whole file.
func SigGenShardedCtx(ctx context.Context, plan *ShardPlan, ds *data.Dataset, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return sigGenSharded(ctx, ds, plan.Sky, fam, workers)
}

// sigGenSharded is SigGenShardedCtx over any skyline: the in-process
// sharded route, which builds no plan.
func sigGenSharded(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fp, folded, err := foldAll(ctx, ds, sky, fam, workers)
	if err != nil {
		return nil, err
	}
	fp.IO = SyntheticScanStats(ds.Dims(), folded)
	return fp, nil
}

// SyntheticScanStats synthesizes the sequential-scan I/O accounting for
// reading n fixed-size records of a dims-dimensional dataset — the charge
// model of the sharded signature fold. The cluster coordinator uses it to
// stamp merged remote fingerprints with the same accounting the in-process
// sharded path reports, so remote and local results agree down to the I/O
// counters.
func SyntheticScanStats(dims, n int) pager.Stats {
	counter := pager.NewSequentialCounter(8*dims + 4)
	return pager.Stats{
		Reads:  int64(n),
		Faults: int64(counter.PagesForRecords(n)),
		Hits:   int64(n - counter.PagesForRecords(n)),
	}
}

// ShardFingerprint folds the signature contribution of shard i alone into a
// fresh fingerprint — the unit of work a remote shard worker serves, and the
// coordinator's local-recompute rung: ShardFingerprintLocal over the plan's
// dataset, merged skyline and shard rows. The result carries no I/O stats
// (the coordinator synthesizes accounting from the summed per-shard scan
// counts, see SyntheticScanStats and ShardScanned). Merging the per-shard
// results by per-slot minima and score sums reproduces SigGenShardedCtx
// bit-identically in any merge order.
func (plan *ShardPlan) ShardFingerprint(ctx context.Context, i int, fam *minhash.Family) (*Fingerprint, error) {
	if i < 0 || i >= len(plan.Shards) {
		return nil, fmt.Errorf("core: shard index %d out of [0, %d)", i, len(plan.Shards))
	}
	fp, _, err := ShardFingerprintLocal(ctx, plan.ds, plan.Sky, plan.Shards[i].Rows, fam)
	return fp, err
}

// ShardScanned reports how many rows shard i's fold folds — the shard's
// share of the sharded route's synthetic scan accounting.
func (plan *ShardPlan) ShardScanned(i int) int { return plan.Shards[i].scanned }

// ShardFingerprintLocal computes one shard's signature contribution: the
// row fold of the shard's global row ids against the merged skyline sky.
// It serves any skyline, so a shard worker answers with it whatever
// skyline the coordinator sends. The returned count is the rows folded
// (those dominated by at least one skyline column), the shard's share of
// the synthetic scan accounting.
func ShardFingerprintLocal(ctx context.Context, ds *data.Dataset, sky []int, rows []int, fam *minhash.Family) (*Fingerprint, int, error) {
	if len(sky) == 0 {
		return nil, 0, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return newRowFold(ds, sky, fam).fold(ctx, 0, 0, rows)
}
