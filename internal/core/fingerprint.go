package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"skydiver/internal/data"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// Fingerprint is the output of Phase 1: one MinHash signature per skyline
// point plus the exact domination scores |Γ(p)| accumulated on the way.
type Fingerprint struct {
	// Matrix holds the signatures (column j belongs to skyline point j).
	Matrix *minhash.Matrix
	// DomScore[j] is the exact domination score |Γ(s_j)|.
	DomScore []float64
	// IO is the I/O incurred while generating the signatures.
	IO pager.Stats
	// fam is the hash family a fingerprint the cache holds was built with,
	// kept so a write that patches the entry draws none; nil for every
	// other fingerprint (migrateFingerprints draws one for an entry
	// installed without it).
	fam *minhash.Family
	// lsh memoizes the LSH bit-vectors of Matrix (Sec. 4.2.2) for a
	// fingerprint the cache holds; it is nil for every other fingerprint.
	// Cache hits share it with the entry, and a write that patches the
	// entry patches its vectors too (migrateFingerprints).
	lsh *atomic.Pointer[lshVectors]
	// picks memoizes the greedy's picks and distances under the MinHash
	// estimate for a fingerprint the cache holds, and is nil exactly when
	// lsh is. Cache hits share it; a write empties its order and carries
	// its distances.
	picks *pickOrder
}

// lshVectors is one memo value: the bit-vectors of a fingerprint's matrix
// under one banding and zone seed, and the greedy's picks and distances
// under their Hamming distance. Readers only read it; a write, which
// excludes every reader, patches the vectors in place with the matrix.
type lshVectors struct {
	params  lsh.Params
	seed    int64
	vectors *lsh.BitVectors
	picks   pickOrder
}

// lshMemo returns fp's memoized LSH bit-vectors, or nil.
func (fp *Fingerprint) lshMemo() *lshVectors {
	if fp.lsh == nil {
		return nil
	}
	return fp.lsh.Load()
}

// bitVectors returns the LSH bit-vectors of fp's matrix under params and
// zone seed, and the memo slot of the greedy's picks under their Hamming
// distance (nil for a fingerprint the cache does not hold): the memoized
// vectors when their key matches, else a fresh build, which then replaces
// the memo. Queries hold only the dataset's read lock, so two readers may
// build at once; both builds are bit-identical and either store may win.
func (fp *Fingerprint) bitVectors(ctx context.Context, params lsh.Params, seed int64) (*lsh.BitVectors, *pickOrder, error) {
	if v := fp.lshMemo(); v != nil && v.params == params && v.seed == seed {
		return v.vectors, &v.picks, nil
	}
	vectors, err := lsh.BuildCtx(ctx, fp.Matrix, params, seed)
	if err != nil || fp.lsh == nil {
		return vectors, nil, err
	}
	v := &lshVectors{params: params, seed: seed, vectors: vectors}
	fp.lsh.Store(v)
	return vectors, &v.picks, nil
}

// pickOrder memoizes the greedy selection (Fig. 6) over one fingerprint
// under one distance. The selection is a pure function of the distance and
// the domination scores, and it never revisits a pick, so its picks for k
// are the first k of its picks for any larger k: one stored order answers
// every k up to its length. Beside the order it keeps the distances the
// selection computed from its picks, which a later selection reads before
// it estimates. A stored value is shared by every reader and never written
// while a query runs; a write empties the order and carries the distances
// to the patched columns (carry). A nil *pickOrder memoizes nothing.
type pickOrder struct {
	p atomic.Pointer[pickMemo]
}

// pickMemo is one stored value of a pickOrder: the picks of a completed
// selection in order (none after a write), and at most t rows of the
// distances selections computed from their picks, one row per pick.
type pickMemo struct {
	order []int
	rows  []countRow
}

// countRow holds the distances from skyline column col to every column as
// exact counts (metric), unknownCount where none was computed.
type countRow struct {
	col    int
	counts []int32
}

// unknownCount marks a distance no selection has computed.
const unknownCount = -1

// load returns the stored value, or nil.
func (o *pickOrder) load() *pickMemo {
	if o == nil {
		return nil
	}
	return o.p.Load()
}

// prefix returns a copy of the first k stored picks, or nil when fewer
// than k are stored.
func (o *pickOrder) prefix(k int) []int {
	if p := o.load(); p != nil && len(p.order) >= k {
		return append([]int(nil), p.order[:k]...)
	}
	return nil
}

// store records a copy of a completed selection's picks, with its rows of
// distances, unless at least as many picks are stored already: a racing
// store never replaces a longer order with a shorter one. The rows are
// handed over; a row the selection took from the slot unchanged is
// stored again, as it stays unwritten until a write carries it.
func (o *pickOrder) store(picks []int, rows []countRow) {
	if o == nil {
		return
	}
	next := &pickMemo{order: append([]int(nil), picks...), rows: rows}
	for cur := o.p.Load(); cur == nil || len(cur.order) < len(next.order); cur = o.p.Load() {
		if o.p.CompareAndSwap(cur, next) {
			return
		}
	}
}

// carry readies o for its fingerprint's patched columns, cols of them:
// runs are the columns the write kept (columnRuns), and fresh lists the
// new columns whose signatures it changed or that joined. The order is
// emptied, since the greedy's order depends on every score and column,
// which a write moves. Each row moves to its pick's new column, or goes
// with a pick whose column changed or left, and forgets its counts at the
// fresh columns; every other count is a function of two unchanged
// signatures, so it stays exact. Rows are rewritten in place: the caller
// excludes every reader.
func (o *pickOrder) carry(runs []colRun, fresh []int, cols int) {
	cur := o.p.Load()
	if cur == nil {
		return
	}
	rows := cur.rows[:0]
	for _, r := range cur.rows {
		col := -1
		for _, run := range runs {
			if run.src <= r.col && r.col < run.src+run.n {
				col = run.dst + r.col - run.src
			}
		}
		if col < 0 || slices.Contains(fresh, col) {
			continue
		}
		r.col, r.counts = col, moveCounts(r.counts, runs, fresh, cols)
		rows = append(rows, r)
	}
	o.p.Store(&pickMemo{rows: rows})
}

// moveCounts rewrites, in place, a row of counts over the old columns as
// one over cols new columns: each run of kept columns moves as a block,
// and the fresh columns, the joined ones among them, read unknownCount. The runs are ascending in both positions, so the blocks
// that move left are copied in ascending order and those that move right
// in descending order, and none is overwritten before it is read.
func moveCounts(counts []int32, runs []colRun, fresh []int, cols int) []int32 {
	if cols > len(counts) {
		counts = slices.Grow(counts, cols-len(counts))[:cols]
	}
	for _, r := range runs {
		if r.src > r.dst {
			copy(counts[r.dst:r.dst+r.n], counts[r.src:r.src+r.n])
		}
	}
	for k := len(runs) - 1; k >= 0; k-- {
		if r := runs[k]; r.src < r.dst {
			copy(counts[r.dst:r.dst+r.n], counts[r.src:r.src+r.n])
		}
	}
	counts = counts[:cols]
	for _, c := range fresh {
		counts[c] = unknownCount
	}
	return counts
}

// SigGenIF is the index-free signature generator (Figure 3): a single
// sequential pass over the data file, checking every point against the
// skyline and folding each dominated row into the signatures of its
// dominators. Row identifiers are dataset indexes. I/O is charged as a
// sequential scan of fixed-size records (d float64s plus a row id).
//
// Each row's dominators come from the prepared skyline's prefix-bitset
// kernel (see skyPrep), and the row is hashed by stepping the previous
// row's hash residues, since row ids arrive in order. The pass is the range
// fold of [0, n) (see foldAll).
func SigGenIF(ds *data.Dataset, sky []int, fam *minhash.Family) (*Fingerprint, error) {
	return SigGenIFCtx(context.Background(), ds, sky, fam)
}

// SigGenIFCtx is SigGenIF with cancellation, checked once per data page so
// an aborted scan returns within one page quantum. Partially accumulated
// signatures are discarded (a half-scanned signature matrix would silently
// underestimate Jaccard distances).
func SigGenIFCtx(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family) (*Fingerprint, error) {
	return SigGenIFParallelCtx(ctx, ds, sky, fam, 1)
}

// SigGenIB is the index-based signature generator (Figure 4). It traverses
// the aggregate R*-tree with a priority queue; an entry that no skyline
// point partially dominates is processed wholesale — its aggregate count of
// rows is folded into the signatures of all fully-dominating skyline points
// without descending — while partially dominated entries are opened. Row
// identifiers are assigned by a running counter in traversal order, exactly
// as the pseudocode's rowcount; each physical point is consumed exactly
// once, so signatures stay consistent across columns. The traversal is the
// single-task case of SigGenIBParallelCtx's subtree scanner.
//
// I/O is charged through the reader — the tree's own pool, or a per-query
// rtree.Session for isolated accounting; either way callers typically start
// from a cold 20% cache before measuring.
func SigGenIB(tr rtree.Reader, ds *data.Dataset, sky []int, fam *minhash.Family) (*Fingerprint, error) {
	return SigGenIBCtx(context.Background(), tr, ds, sky, fam)
}

// SigGenIBCtx is SigGenIB with cancellation, checked before every node read
// (page granularity). An aborted traversal discards its partial signatures.
func SigGenIBCtx(ctx context.Context, tr rtree.Reader, ds *data.Dataset, sky []int, fam *minhash.Family) (*Fingerprint, error) {
	m := len(sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr.Dims() != ds.Dims() {
		return nil, fmt.Errorf("core: tree dims %d != dataset dims %d", tr.Dims(), ds.Dims())
	}
	before := tr.Stats()
	sc := newIBScanner(prepareSkyline(ds, sky), fam, tr.Len())
	defer sc.release()
	if err := sc.runSubtree(ctx, tr, ibTask{page: tr.Root(), count: uint64(tr.Len())}); err != nil {
		return nil, err
	}
	sc.fold.flush()
	sc.fp.IO = tr.Stats().Sub(before)
	return sc.fp, nil
}

// SigGenSets fingerprints explicit dominated sets: lists[j] holds the row
// ids dominated by skyline point j. This is the entry point for
// dominance-graph inputs (Figure 1) where no coordinates exist at all —
// partially ordered domains, categorical data, or anonymized third-party
// relations.
func SigGenSets(lists [][]int, fam *minhash.Family) (*Fingerprint, error) {
	m := len(lists)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	t := fam.Size()
	fp := &Fingerprint{Matrix: minhash.NewMatrix(t, m), DomScore: make([]float64, m)}
	// Invert to row-major order so each row is hashed once.
	byRow := make(map[int][]int)
	for j, l := range lists {
		fp.DomScore[j] = float64(len(l))
		for _, r := range l {
			byRow[r] = append(byRow[r], j)
		}
	}
	hv := make([]uint32, t)
	for r, cols := range byRow {
		minHv := fam.HashAllMin(hv, uint64(r))
		for _, c := range cols {
			fp.Matrix.UpdateColumnBounded(c, hv, minHv)
		}
	}
	return fp, nil
}
