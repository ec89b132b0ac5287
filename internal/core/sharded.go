package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

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
// in its own isolated rtree.Session and contributes a local signature
// matrix, and a merge operator recombines both — the single-process form of
// the partition-parallel skyline family, with the shard boundary shaped so
// a multi-node backend can later stand behind the same types.
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
//     commutative and associative. Each shard therefore folds its own rows
//     (identified by absolute row id — the generalization of the SigGen-IB
//     planner's row-base rebasing, where the "base" of shard-local row l is
//     simply Rows[l]) into a private matrix, and the merge takes per-slot
//     minima across shards and sums the domination scores. The result is
//     bit-identical to the unsharded SigGen-IF pass for any shard count
//     and any partitioning.
//
// The speed comes from the plan being reusable: per (epoch, shard count)
// the plan Z-orders each shard's rows and classifies the whole dominance
// relation once, into a binary segment tree over the Z-order. A column
// fully dominating a node's MBR is recorded at that node (the highest node
// where it resolves, like a segment-tree cover of its dominated set);
// columns still partial at a small leaf are resolved row by row at build
// time into exact (row, column) pairs. At query time there are no dominance
// tests at all: one bottom-up pass hashes each row once, merges per-slot
// minimum vectors up the tree, folds each node's resolved columns with the
// node-wide minimum (one bounded fold and one score addition cover the
// node's whole row range) and folds the leaf pairs row-individually — and
// the folded matrix stays bit-identical, because per-slot minima commute
// and every domination pair is covered by exactly one node entry or pair.

// planLeafWork bounds the classification recursion: a node whose remaining
// partial-column count times row count drops to this many build-time
// dominance tests becomes a leaf resolved into exact pairs instead of
// splitting further. Splitting deeper trades those pairs for per-node
// merge vectors; at ~4 signature widths the fold work balances. planLeafMin
// stops splitting outright once a run is this short.
const (
	planLeafWork = 2048
	planLeafMin  = 16
)

// planNode is one node of a shard's classification tree over its Z-ordered
// rows. Leaves own a row range and exact pairs; internal nodes merge their
// children. Column lists and pairs live in the shard's flat stores.
type planNode struct {
	lo, hi         int32 // row range [lo, hi) in the shard's zrows
	left, right    int32 // child node indexes, -1 for leaves
	colOff, colLen int32 // columns fully dominating the range, in colStore
	needed         bool  // subtree (self included) holds columns or pairs
}

// planPair is one exact (row, column) domination resolved at build time:
// zrows[row] is dominated by merged-skyline column col.
type planPair struct {
	row int32
	col int32
}

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

	zrows    []int32    // live non-skyline rows, Z-ordered
	nodes    []planNode // classification tree in preorder, root at 0
	colStore []int32    // flat backing for the nodes' column lists
	pairs    []planPair // leaf-resolved pairs, ascending by row index
	depth    int        // tree height, sizes the query's merge buffers
	scanned  int        // rows this shard's query-time fold actually reads
}

// ShardPlan is the cached partitioned-execution state of one dataset
// version: the shards, their local skylines, the merged global skyline and
// the per-shard classification trees the sharded signature generator folds
// with. A plan is immutable once built and safe for concurrent use.
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

	dims    int
	skyPts  []float64 // len(Sky)×dims flattened skyline coordinates
	scanned int       // rows the query-time fold actually reads
}

// BuildShardPlan partitions ds into n shards with sh, computes each
// shard's local skyline with BBS through a private session on the shard's
// own R*-tree, merges, and builds the per-shard classification trees.
// configure, when non-nil, runs on every freshly built shard tree before
// any I/O (the library uses it to copy the main index's fault injector, so
// injected storage faults reach shard reads too). epoch is stamped into
// the plan for staleness checks by the owner.
func BuildShardPlan(ctx context.Context, ds *data.Dataset, sh shard.Sharder, n int, epoch uint64, configure func(*rtree.Tree)) (*ShardPlan, error) {
	shards, err := buildShardSets(ds, sh, n)
	if err != nil {
		return nil, err
	}
	plan := &ShardPlan{Sharder: sh.Name(), Epoch: epoch, Shards: shards, dims: ds.Dims()}
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
	if err := plan.buildTrees(ctx, ds); err != nil {
		return nil, err
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

// buildTrees Z-orders each shard's live non-skyline rows and classifies the
// dominance relation against the merged skyline once, into a binary segment
// tree per shard, so queries inherit the whole classification for free.
func (plan *ShardPlan) buildTrees(ctx context.Context, ds *data.Dataset) error {
	m := len(plan.Sky)
	d := plan.dims
	plan.skyPts = make([]float64, m*d)
	for j, s := range plan.Sky {
		copy(plan.skyPts[j*d:(j+1)*d], ds.Point(s))
	}
	inSky := newBitset(ds.Len())
	for _, s := range plan.Sky {
		inSky.set(s)
	}
	var pr *skyProbe
	if m > 0 {
		pr = prepareSkyline(ds, plan.Sky).probe()
	}
	bounds := ds.Bounds()
	for si := range plan.Shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := &plan.Shards[si]
		zrows := make([]int32, 0, len(s.Rows))
		for _, r := range s.Rows {
			if !inSky.get(r) {
				zrows = append(zrows, int32(r))
			}
		}
		// Sort a permutation rather than zrows itself: the keys array is
		// parallel to the pre-sort positions, so permuting zrows in place
		// would desynchronize the comparator from its keys.
		keys := make([]uint64, len(zrows))
		for i, r := range zrows {
			keys[i] = data.MortonKey(ds.Point(int(r)), bounds.Lo, bounds.Hi)
		}
		perm := make([]int32, len(zrows))
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Slice(perm, func(a, b int) bool {
			pa, pb := perm[a], perm[b]
			if keys[pa] != keys[pb] {
				return keys[pa] < keys[pb]
			}
			return zrows[pa] < zrows[pb]
		})
		sorted := make([]int32, len(zrows))
		for i, p := range perm {
			sorted[i] = zrows[p]
		}
		s.zrows = sorted
		if len(s.zrows) == 0 || pr == nil {
			continue
		}
		tb := &treeBuilder{plan: plan, s: s, ds: ds, probe: pr, rect: geom.NewRect(d)}
		tb.build(0, int32(len(s.zrows)), nil, 0)
		s.scanned = tb.countScanned(0, false)
		plan.scanned += s.scanned
	}
	return nil
}

// treeBuilder holds the per-shard state of the classification recursion.
// Candidate column sets are staged in per-depth scratch slices: a parent's
// partial list must outlive both child recursions, but never its own
// ancestors' lists, so one slice per depth suffices and the build does not
// allocate per node.
type treeBuilder struct {
	plan  *ShardPlan
	s     *PlanShard
	ds    *data.Dataset
	probe *skyProbe
	rect  geom.Rect
	cands [][]int32
}

// build classifies zrows[lo:hi] against cand (nil at the root, meaning the
// whole skyline via the prefix-bitset classifier) and returns the node
// index. Columns fully dominating the range's MBR are recorded here — the
// highest node where they resolve; columns dominating nothing are dropped;
// the rest descend. The recursion bottoms out when nothing is left to descend with,
// or when resolving the survivors row by row is cheaper than splitting.
func (tb *treeBuilder) build(lo, hi int32, cand []int32, depth int) int32 {
	s := tb.s
	if depth+1 > s.depth {
		s.depth = depth + 1
	}
	tb.rect.Reset()
	for _, r := range s.zrows[lo:hi] {
		tb.rect.ExpandPoint(tb.ds.Point(int(r)))
	}
	idx := int32(len(s.nodes))
	s.nodes = append(s.nodes, planNode{lo: lo, hi: hi, left: -1, right: -1, colOff: int32(len(s.colStore))})
	var part []int32
	if cand == nil {
		var full []int32
		full, part = tb.probe.classifyRectSplit(tb.rect)
		s.colStore = append(s.colStore, full...)
	} else {
		for len(tb.cands) <= depth {
			tb.cands = append(tb.cands, nil)
		}
		part = tb.cands[depth][:0]
		d := tb.plan.dims
		for _, c := range cand {
			switch geom.DomRelation(tb.plan.skyPts[int(c)*d:(int(c)+1)*d], tb.rect) {
			case geom.DomFull:
				s.colStore = append(s.colStore, c)
			case geom.DomPartial:
				part = append(part, c)
			}
		}
		tb.cands[depth] = part
	}
	nd := &s.nodes[idx]
	nd.colLen = int32(len(s.colStore)) - nd.colOff
	switch {
	case len(part) == 0:
		// Nothing below: every column resolved on the way down.
	case hi-lo <= planLeafMin || int(hi-lo)*len(part) <= planLeafWork:
		tb.resolvePairs(idx, part)
	default:
		mid := lo + (hi-lo)/2
		l := tb.build(lo, mid, part, depth+1)
		r := tb.build(mid, hi, part, depth+1)
		nd = &s.nodes[idx] // the slice may have moved during recursion
		nd.left, nd.right = l, r
	}
	nd = &s.nodes[idx]
	nd.needed = nd.needed || nd.colLen > 0 ||
		(nd.left >= 0 && (s.nodes[nd.left].needed || s.nodes[nd.right].needed))
	return idx
}

// resolvePairs finishes a leaf exactly: each (row, partial column) pair is
// tested once at build time and the positives stored, so query time never
// runs a dominance test.
func (tb *treeBuilder) resolvePairs(idx int32, part []int32) {
	s := tb.s
	nd := &s.nodes[idx]
	d := tb.plan.dims
	before := len(s.pairs)
	for i := nd.lo; i < nd.hi; i++ {
		p := tb.ds.Point(int(s.zrows[i]))
		for _, c := range part {
			if geom.Dominates(tb.plan.skyPts[int(c)*d:(int(c)+1)*d], p) {
				s.pairs = append(s.pairs, planPair{row: i, col: c})
			}
		}
	}
	if len(s.pairs) > before {
		nd.needed = true
	}
}

// countScanned mirrors the query-time traversal and counts the rows it will
// hash: every row under a resolved column, plus the pair rows of leaves no
// column covers wholesale.
func (tb *treeBuilder) countScanned(ni int32, anc bool) int {
	nd := &tb.s.nodes[ni]
	needVec := anc || nd.colLen > 0
	if !needVec && !nd.needed {
		return 0
	}
	if nd.left < 0 {
		if needVec {
			return int(nd.hi - nd.lo)
		}
		pairs := tb.s.pairs
		i0 := sort.Search(len(pairs), func(i int) bool { return pairs[i].row >= nd.lo })
		n, last := 0, int32(-1)
		for _, pr := range pairs[i0:] {
			if pr.row >= nd.hi {
				break
			}
			if pr.row != last {
				n++
				last = pr.row
			}
		}
		return n
	}
	return tb.countScanned(nd.left, needVec) + tb.countScanned(nd.right, needVec)
}

// SigGenSharded is SigGenShardedCtx without cancellation.
func SigGenSharded(plan *ShardPlan, ds *data.Dataset, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return SigGenShardedCtx(context.Background(), plan, ds, fam, workers)
}

// SigGenShardedCtx runs Phase 1 over a shard plan: every shard folds its
// rows by one bottom-up pass over its classification tree (node-wholesale
// for columns resolved at a node, pair-exact at the leaves, no dominance
// tests at all). The output is bit-identical to SigGenIF on the whole
// dataset — same slot values, same domination scores — for any shard count,
// because row ids are absolute and per-slot minima commute. That same
// commutativity lets the worker count pick the matrix strategy: a single
// worker folds every shard straight into one shared matrix (whose screening
// bounds tighten as shards accumulate, exactly like the unsharded fold),
// while workers >1 processes shards concurrently into private matrices
// merged afterwards by per-slot minima and score sums. As for every
// Workers setting, 0 or 1 is sequential and <0 uses GOMAXPROCS. The context
// is polled as the tree traversal proceeds.
//
// I/O is charged as a sequential scan of the rows the fold actually hashes
// — those under at least one resolved column or exact pair; rows provably
// dominated by nothing are never touched.
func SigGenShardedCtx(ctx context.Context, plan *ShardPlan, ds *data.Dataset, fam *minhash.Family, workers int) (*Fingerprint, error) {
	m := len(plan.Sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers = shardWorkers(workers, len(plan.Shards))
	t := fam.Size()
	if workers <= 1 {
		out := &Fingerprint{Matrix: minhash.NewMatrix(t, m), DomScore: make([]float64, m)}
		for i := range plan.Shards {
			if err := plan.shardFingerprint(ctx, &plan.Shards[i], fam, out); err != nil {
				return nil, err
			}
		}
		plan.chargeIO(ds, out)
		return out, nil
	}

	parts := make([]*Fingerprint, len(plan.Shards))
	var (
		wg       sync.WaitGroup
		next     int
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= len(plan.Shards) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				fp := &Fingerprint{Matrix: minhash.NewMatrix(t, m), DomScore: make([]float64, m)}
				err := plan.shardFingerprint(ctx, &plan.Shards[i], fam, fp)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				parts[i] = fp
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	out := &Fingerprint{Matrix: minhash.NewMatrix(t, m), DomScore: make([]float64, m)}
	for _, fp := range parts {
		for c := 0; c < m; c++ {
			out.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
			out.DomScore[c] += fp.DomScore[c]
		}
	}
	plan.chargeIO(ds, out)
	return out, nil
}

// shardWorkers resolves a Workers setting for a fold over shards shards:
// 0 or 1 is sequential, <0 uses GOMAXPROCS, and no more workers run than
// there are shards.
func shardWorkers(workers, shards int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, shards))
}

// chargeIO stamps the synthesized sequential-scan accounting of the plan's
// hashed rows onto the fingerprint.
func (plan *ShardPlan) chargeIO(ds *data.Dataset, out *Fingerprint) {
	out.IO = SyntheticScanStats(ds.Dims(), plan.scanned)
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
// fresh fingerprint — the unit of work a remote shard worker serves. The
// result carries no I/O stats (the coordinator synthesizes accounting from
// the summed per-shard scan counts, see SyntheticScanStats). Merging the
// per-shard results by per-slot minima and score sums — exactly what
// SigGenShardedCtx's parallel path does — reproduces the full sharded
// fingerprint bit-identically in any merge order.
func (plan *ShardPlan) ShardFingerprint(ctx context.Context, i int, fam *minhash.Family) (*Fingerprint, error) {
	m := len(plan.Sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if i < 0 || i >= len(plan.Shards) {
		return nil, fmt.Errorf("core: shard index %d out of [0, %d)", i, len(plan.Shards))
	}
	fp := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
	if err := plan.shardFingerprint(ctx, &plan.Shards[i], fam, fp); err != nil {
		return nil, err
	}
	return fp, nil
}

// ShardScanned reports how many rows shard i's query-time fold reads — the
// shard's share of the plan's synthetic scan accounting.
func (plan *ShardPlan) ShardScanned(i int) int { return plan.Shards[i].scanned }

// ShardFingerprintLocal computes one shard's signature contribution
// directly — SigGen-IF restricted to the shard's row set, without building
// or consulting a classification tree. It is the coordinator's
// local-recompute rung for a failed remote shard: given the merged skyline
// and the shard's global row ids, the output fingerprint and scan count are
// bit-identical to ShardFingerprint for the same shard, because both fold
// per-slot minima of the same hashed global row ids and both count exactly
// the rows dominated by at least one skyline column.
func ShardFingerprintLocal(ctx context.Context, ds *data.Dataset, sky []int, rows []int, fam *minhash.Family) (*Fingerprint, int, error) {
	m := len(sky)
	if m == 0 {
		return nil, 0, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	fp := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
	pr := prepareSkyline(ds, sky).probe()
	inSky := newBitset(ds.Len())
	for _, s := range sky {
		inSky.set(s)
	}
	rf := newRowFolder(fam, fp)
	defer rf.release()
	scanned := 0
	for n, r := range rows {
		if n&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if inSky.get(r) || ds.Deleted(r) {
			continue
		}
		if cols := pr.dominators(ds.Point(r)); len(cols) > 0 {
			scanned++
			rf.fold(cols, uint64(r))
		}
	}
	return fp, scanned, nil
}

// shardFingerprint folds one shard's classification tree into fp with a
// single bottom-up pass. fp may be shared across sequential shard folds or
// private to a worker; either way the final slot values and scores are the
// same, only the screening bounds differ along the way.
func (plan *ShardPlan) shardFingerprint(ctx context.Context, s *PlanShard, fam *minhash.Family, fp *Fingerprint) error {
	if len(s.nodes) == 0 || !s.nodes[0].needed {
		return nil
	}
	t := fam.Size()
	sc := getSigScratch(t)
	defer sc.release()
	f := &shardFold{
		ctx: ctx, s: s, fam: fam, fp: fp, sc: sc, t: t,
		bufs: make([]uint32, (s.depth+1)*t),
	}
	_, err := f.node(0, 0, nil)
	return err
}

// shardFold is the traversal state of one shard's query-time fold.
type shardFold struct {
	ctx     context.Context
	s       *PlanShard
	fam     *minhash.Family
	fp      *Fingerprint
	sc      *sigScratch
	t       int
	bufs    []uint32 // one per-slot minimum vector per tree level
	pairCur int      // cursor into s.pairs; leaves are visited in row order
	visits  int      // node visits since the last context poll
}

// node folds the subtree at ni. When dst is non-nil the caller needs this
// range's per-slot minimum vector written there (some ancestor resolved a
// column over it); the returned uint32 is then the vector's overall
// minimum, for the bounded column update. Left children write straight
// into the parent's destination and right children into the level's own
// scratch buffer, so one buffer per tree level suffices. Subtrees no
// ancestor covers and with nothing resolved inside are skipped whole —
// their rows are never hashed.
func (f *shardFold) node(ni int32, depth int, dst []uint32) (uint32, error) {
	nd := &f.s.nodes[ni]
	if dst == nil && !nd.needed {
		return math.MaxUint32, nil
	}
	if f.visits++; f.visits&255 == 0 {
		if err := f.ctx.Err(); err != nil {
			return 0, err
		}
	}
	vec := dst
	if vec == nil && nd.colLen > 0 {
		vec = f.bufs[depth*f.t : (depth+1)*f.t]
	}
	var vecMin uint32 = math.MaxUint32
	if nd.left < 0 {
		vecMin = f.leaf(nd, vec)
	} else {
		var lmin, rmin uint32
		var err error
		if vec == nil {
			if _, err = f.node(nd.left, depth+1, nil); err != nil {
				return 0, err
			}
			if _, err = f.node(nd.right, depth+1, nil); err != nil {
				return 0, err
			}
		} else {
			if lmin, err = f.node(nd.left, depth+1, vec); err != nil {
				return 0, err
			}
			tmp := f.bufs[(depth+1)*f.t : (depth+2)*f.t]
			if rmin, err = f.node(nd.right, depth+1, tmp); err != nil {
				return 0, err
			}
			for i, v := range tmp {
				if v < vec[i] {
					vec[i] = v
				}
			}
			vecMin = lmin
			if rmin < vecMin {
				vecMin = rmin
			}
		}
	}
	if nd.colLen > 0 {
		count := float64(nd.hi - nd.lo)
		for _, c := range f.s.colStore[nd.colOff : nd.colOff+nd.colLen] {
			f.fp.Matrix.UpdateColumnBounded(int(c), vec, vecMin)
			f.fp.DomScore[c] += count
		}
	}
	return vecMin, nil
}

// leaf folds one leaf: rows hash once each, accumulating the range minima
// when an ancestor needs them, and the pre-resolved pairs fold against the
// live hash vector. When no ancestor covers the leaf, only the rows that
// actually appear in pairs are hashed.
func (f *shardFold) leaf(nd *planNode, vec []uint32) uint32 {
	s, hv := f.s, f.sc.hv
	var vecMin uint32 = math.MaxUint32
	if vec != nil {
		for i := range vec {
			vec[i] = math.MaxUint32
		}
		for i := nd.lo; i < nd.hi; i++ {
			minHv := f.fam.HashAllGroupMinAccum(hv, uint64(s.zrows[i]), f.sc.gm, vec)
			if minHv < vecMin {
				vecMin = minHv
			}
			f.foldPairs(i, minHv)
		}
		return vecMin
	}
	for f.pairCur < len(s.pairs) && s.pairs[f.pairCur].row < nd.hi {
		i := s.pairs[f.pairCur].row
		minHv := f.fam.HashAllGroupMin(hv, uint64(s.zrows[i]), f.sc.gm)
		f.foldPairs(i, minHv)
	}
	return vecMin
}

// foldPairs applies every pre-resolved pair of row index i, advancing the
// shared cursor. The hash vector for the row must be live in the scratch.
func (f *shardFold) foldPairs(i int32, minHv uint32) {
	s := f.s
	for f.pairCur < len(s.pairs) && s.pairs[f.pairCur].row == i {
		c := s.pairs[f.pairCur].col
		f.fp.Matrix.UpdateColumnGrouped(int(c), f.sc.hv, f.sc.gm, minHv)
		f.fp.DomScore[c]++
		f.pairCur++
	}
}
