package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"skydiver/internal/budget"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
)

// This file holds the one index-free Phase-1 fold. SigGen-IF (Figure 3)
// folds each dominated row's hash values into its dominators' slots by
// per-slot minimum; the minimum commutes, so any split of the rows into
// private fingerprints min-merges to the same signatures, and the
// domination scores — integer counts in float64 — sum exactly in any order.
// Every index-free generator is therefore a caller of one page loop,
// foldPages, which charges the budget, polls ctx and feeds the row kernel;
// a caller supplies only the dominators of each row:
//
//   - SigGen-IF folds the range [0, n) with rowFold.fold, which probes the
//     prepared skyline and skips skyline rows and tombstones;
//   - SigGenIFParallel folds W page ranges (PageRange) concurrently and
//     min-merges them (the paper's parallelization future-work item,
//     Section 6);
//   - a remote shard is one of S page ranges (PageRange): a cluster
//     worker folds it with FoldRange against the skyline the coordinator
//     sends, the coordinator recomputes an unserved shard with the same
//     call, and it min-merges the shards' folds;
//   - a stream window's rebuild folds the range of its materialized rows,
//     hashed by stream sequence number (Window.Rebuild);
//   - SigGenFunc folds n rows whose dominators an oracle names: the
//     streaming pass reads them from a data.Source (SigGenIFStreamCtx),
//     DiversifyRelative probes the rows of B against A, and a mixed table
//     tests its partially ordered dominance row by row.

// workerTestHook, when non-nil, is invoked by every parallel fingerprinting
// worker as it starts. Tests use it to inject panics and count workers; it is
// never set in production code.
var workerTestHook func(worker int)

// rowFold is what every index-free fold over one skyline shares read-only:
// the dataset, the prepared skyline, the skyline membership bitset and the
// hash family. Concurrent folds each take their own probe and row folder.
type rowFold struct {
	ds    *data.Dataset
	prep  *skyPrep
	inSky bitset
	fam   *minhash.Family
	page  int    // records per data page: the budget-charge and poll quantum
	base  uint64 // row id of dataset index 0: a window's first sequence number
}

func newRowFold(ds *data.Dataset, sky []int, fam *minhash.Family) *rowFold {
	inSky := newBitset(ds.Len())
	for _, s := range sky {
		inSky.set(s)
	}
	return &rowFold{
		ds:    ds,
		prep:  prepareSkyline(ds, sky),
		inSky: inSky,
		fam:   fam,
		page:  recordsPerPage(ds.Dims()),
	}
}

// recordsPerPage is how many fixed-size records of a dims-dimensional
// dataset one data page holds under SigGen-IF's sequential-scan model.
func recordsPerPage(dims int) int {
	return pager.NewSequentialCounter(8*dims + 4).RecordsPerPage()
}

// PageRange returns the rows [lo, hi) of the i-th of s contiguous ranges
// of whole data pages that cut ds: of the P pages a sequential scan reads,
// range i spans pages ⌊i·P/s⌋ to ⌊(i+1)·P/s⌋. For i in [0, s) the ranges
// are disjoint, cover [0, n) in order, and none is empty while s ≤ P. They
// are foldAll's worker ranges and the cluster's remote shards.
func PageRange(ds *data.Dataset, i, s int) (lo, hi int) {
	n, page := ds.Len(), recordsPerPage(ds.Dims())
	pages := (n + page - 1) / page
	return min(i*pages/s*page, n), min((i+1)*pages/s*page, n)
}

// FoldRange folds the rows [lo, hi) of ds against the skyline sky into a
// fresh fingerprint: the unit of remote execution. A cluster worker serves
// a shard with it over its regenerated replica, and the coordinator
// recomputes a shard the fleet could not serve with the same call. The
// result carries no I/O stats; min-merging the folds of ranges that cover
// [0, n) reproduces SigGen-IF bit for bit.
func FoldRange(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family, lo, hi int) (*Fingerprint, error) {
	if len(sky) == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newRowFold(ds, sky, fam).fold(ctx, lo, hi)
}

// fold folds the live rows of the range [lo, hi) into a fresh private
// fingerprint with the Phase-1 row kernel (see foldPages). Skyline members
// and tombstones are skipped, and a row hashes as its row id, the dataset
// index plus the fold's base.
func (f *rowFold) fold(ctx context.Context, lo, hi int) (*Fingerprint, error) {
	pr := f.prep.probe()
	ds, inSky := f.ds, f.inSky
	return foldPages(ctx, f.fam, f.prep.m, f.page, lo, hi, f.base, func(r int, set []uint64) (bool, error) {
		if inSky.get(r) || ds.Deleted(r) {
			return false, nil
		}
		return pr.dominatorSet(set, ds.Point(r)), nil
	})
}

// foldPages is the Phase-1 page loop: it folds the rows [lo, hi), in
// pages of page rows, into a fresh fingerprint of m columns. For each row,
// dominators writes into set the columns dominating it — ⌈m/64⌉ words,
// column c at bit c%64 of word c/64 — and reports whether there are any;
// the row kernel (rowFolder) then folds the row as row id base+row. Each
// page charges the query budget one page, and every page after the first
// polls ctx, so a cancelled fold stops within one page; a cancelled or
// failed fold returns no fingerprint. For a range with a page-aligned
// start the charges are exactly the data pages it covers.
func foldPages(ctx context.Context, fam *minhash.Family, m, page, lo, hi int, base uint64, dominators func(row int, set []uint64) (bool, error)) (*Fingerprint, error) {
	fp := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
	rf := newRowFolder(fam, fp, hi-lo)
	defer rf.release()
	set := make([]uint64, (m+63)/64)
	tracker := budget.From(ctx)
	for p := lo; p < hi; p += page {
		if tracker != nil {
			tracker.ChargePages(1)
		}
		if p > lo {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for r, end := p, min(p+page, hi); r < end; r++ {
			ok, err := dominators(r, set)
			if err != nil {
				return nil, err
			}
			if ok {
				rf.fold(set, base+uint64(r))
			}
		}
	}
	rf.flush()
	return fp, nil
}

// SigGenFunc is SigGen-IF over a dominance oracle: one sequential pass over
// the rows 0..n−1 of a file of dims-dimensional records, folding each row
// into the signatures of the m columns that dominators names for it (see
// foldPages for its contract and the per-page budget and ctx polls). The
// row id is the row's position, and I/O is charged as SigGen-IF's scan of
// n records. It serves the folds that are not over a Dataset's rows and
// skyline: a streamed source, a set judged against another, and a
// partially ordered domain.
func SigGenFunc(ctx context.Context, fam *minhash.Family, m, n, dims int, dominators func(row int, set []uint64) (bool, error)) (*Fingerprint, error) {
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fp, err := foldPages(ctx, fam, m, recordsPerPage(dims), 0, n, 0, dominators)
	if err != nil {
		return nil, err
	}
	fp.IO = SyntheticScanStats(dims, n)
	return fp, nil
}

// foldAll is the index-free pass over every row of ds: the range fold of
// [0, n) on the calling goroutine, or, with workers ≥ 2, of that many
// page ranges (PageRange) concurrently, min-merged. The fingerprint
// carries no I/O stats.
//
// The worker count is capped by the data pages (one range per page at
// most) and so that the private fingerprints together stay within
// minhash.MaxFingerprintBytes: the count is a request parameter of the
// serving daemons. A panicking worker is recovered into an error; when
// workers fail, the error reported is the first by worker index, and no
// fingerprint is returned.
func foldAll(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	m := len(sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := newRowFold(ds, sky, fam)
	n := ds.Len()
	pages := (n + f.page - 1) / f.page
	workers = min(workers, pages, privateFingerprints(fam.Size(), m))
	if workers <= 1 {
		return f.fold(ctx, 0, n)
	}
	parts := make([]*Fingerprint, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain panics: one bad worker must never crash a serving
			// process — it surfaces as this worker's error instead.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("core: fingerprint worker %d panicked: %v", w, r)
				}
			}()
			if workerTestHook != nil {
				workerTestHook(w)
			}
			lo, hi := PageRange(ds, w, workers)
			parts[w], errs[w] = f.fold(ctx, lo, hi)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := parts[0]
	for w := 1; w < workers; w++ {
		for c := range m {
			out.Matrix.UpdateColumn(c, parts[w].Matrix.Column(c))
			out.DomScore[c] += parts[w].DomScore[c]
		}
	}
	return out, nil
}

// privateFingerprints returns how many t-slot fingerprints of m columns fit
// together within minhash.MaxFingerprintBytes, measured as FingerprintFits
// measures one: the bound on the private matrices of one parallel fold.
func privateFingerprints(t, m int) int {
	return minhash.MaxFingerprintBytes / (4 * (m + 4)) / t
}

// MaxRangeFolds returns how many FoldRange results of t slots over m
// columns fit within minhash.MaxFingerprintBytes together with the
// fingerprint they are merged into, and at least one: the cap on a remote
// shard count, whose folds the coordinator holds until the merge.
func MaxRangeFolds(t, m int) int {
	return max(1, privateFingerprints(t, m)-1)
}

// SigGenIFParallel is the parallel variant of SigGen-IF: the rows are split
// into page-aligned contiguous ranges, one per worker, each folded into a
// private fingerprint, and the fingerprints are min-merged with their
// scores summed. The result is bit-for-bit identical to the sequential
// SigGen-IF for any worker count, I/O accounting included: the physical pass
// over the file is still one sequential read.
//
// workers <= 0 uses GOMAXPROCS.
func SigGenIFParallel(ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return SigGenIFParallelCtx(context.Background(), ds, sky, fam, workers)
}

// SigGenIFParallelCtx is SigGenIFParallel with cancellation, polled once
// per data page by every worker, and worker panic containment (see
// foldAll). A failed or cancelled pass returns no fingerprint.
func SigGenIFParallelCtx(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fp, err := foldAll(ctx, ds, sky, fam, workers)
	if err != nil {
		return nil, err
	}
	fp.IO = SyntheticScanStats(ds.Dims(), ds.Len())
	return fp, nil
}

// SyntheticScanStats synthesizes the sequential-scan I/O accounting for
// reading n fixed-size records of a dims-dimensional dataset: SigGen-IF's
// charge model, which every index-free fingerprint reports for n = the
// file's row count. The cluster coordinator stamps merged remote
// fingerprints with it, so remote and local results agree down to the I/O
// counters.
func SyntheticScanStats(dims, n int) pager.Stats {
	counter := pager.NewSequentialCounter(8*dims + 4)
	return pager.Stats{
		Reads:  int64(n),
		Faults: int64(counter.PagesForRecords(n)),
		Hits:   int64(n - counter.PagesForRecords(n)),
	}
}
