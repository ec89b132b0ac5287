package core

import (
	"context"
	"fmt"
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
	// lsh memoizes the LSH bit-vectors of Matrix (Sec. 4.2.2) for a
	// fingerprint the cache holds; it is nil for every other fingerprint.
	// Cache hits share it with the entry, and a write that migrates the
	// entry carries its vectors to the patched matrix (migrateFingerprints).
	lsh *atomic.Pointer[lshVectors]
	// picks memoizes the greedy's pick order under the MinHash estimate for
	// a fingerprint the cache holds, and is nil exactly when lsh is. Cache
	// hits share it; a write migrates the entry with an empty one.
	picks *pickOrder
}

// lshVectors is one memo value: the bit-vectors of a fingerprint's matrix
// under one banding and zone seed, immutable apart from the greedy's pick
// order under their Hamming distance, which a migrated value starts
// without.
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
// zone seed, and the memo slot of the greedy's pick order under their
// Hamming distance (nil for a fingerprint the cache does not hold): the
// memoized vectors when their key matches, else a fresh build, which then
// replaces the memo. Queries hold only the dataset's read lock, so two
// readers may build at once; both builds are bit-identical and either
// store may win.
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

// pickOrder memoizes the picks of the greedy selection (Fig. 6) over one
// fingerprint under one distance. The selection is a pure function of the
// distance and the domination scores, and it never revisits a pick, so its
// picks for k are the first k of its picks for any larger k: one stored
// order answers every k up to its length. A stored order is immutable and
// shared by every reader; a nil *pickOrder memoizes nothing.
type pickOrder struct {
	p atomic.Pointer[[]int]
}

// prefix returns a copy of the first k stored picks, or nil when fewer
// than k are stored.
func (o *pickOrder) prefix(k int) []int {
	if o == nil {
		return nil
	}
	if p := o.p.Load(); p != nil && len(*p) >= k {
		return append([]int(nil), (*p)[:k]...)
	}
	return nil
}

// store records a copy of a completed selection's picks unless at least as
// many are stored already: a racing store never replaces a longer order
// with a shorter one.
func (o *pickOrder) store(picks []int) {
	if o == nil {
		return
	}
	next := append([]int(nil), picks...)
	for cur := o.p.Load(); cur == nil || len(*cur) < len(next); cur = o.p.Load() {
		if o.p.CompareAndSwap(cur, &next) {
			return
		}
	}
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
