package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"skydiver/internal/budget"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
)

// workerTestHook, when non-nil, is invoked by every parallel fingerprinting
// worker as it starts. Tests use it to inject panics and verify containment;
// it is never set in production code.
var workerTestHook func(worker int)

// SigGenIFParallel is the parallel variant of SigGen-IF, addressing the
// paper's "parallelization aspects" future-work item (Section 6). The result
// is bit-for-bit identical to the sequential SigGen-IF for any worker count.
//
// The pass runs in two phases over one shared signature matrix — there are
// no shard-private matrices and no merge step:
//
//  1. Dominance scan, chunked by data rows: workers claim page-aligned row
//     chunks through an atomic cursor (small chunks, so a worker that drew a
//     dense region does not straggle) and record each dominated row's id and
//     dominator columns. The prepared skyline is built once and shared
//     read-only by every worker.
//  2. Signature fold, striped by hash slots: worker w owns the slot rows
//     [w·t/W, (w+1)·t/W) of EVERY column and replays the recorded rows in
//     ascending order, stepping only its own hash functions from row to
//     row and min-folding into its stripe. Writes are disjoint by
//     construction, so no synchronization and no merge; per-slot minima
//     are independent, so striping cannot change any slot. Each worker
//     screens with private stripe maxima (the striped analogue of the
//     slot-max screen — exact, see UpdateColumnBounded).
//
// Total work across workers equals the sequential pass: each row's
// dominators are computed once (phase 1) and each of its t hash values once
// (phase 2, split across stripes). Domination scores accumulate per worker
// and sum at the end — integer-valued float64 additions, exact in any order.
//
// workers <= 0 uses GOMAXPROCS. I/O is accounted as the same single
// sequential pass (each page is still read exactly once across chunks).
func SigGenIFParallel(ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	return SigGenIFParallelCtx(context.Background(), ds, sky, fam, workers)
}

// ifChunk records the phase-1 output of one row chunk: the rows that have at
// least one dominator, how many dominators each has, and the concatenated
// dominator columns. Written by exactly one phase-1 worker, read by every
// phase-2 worker after the phase barrier (which publishes the writes).
type ifChunk struct {
	rows []int32 // dominated row ids, in scan order
	cnt  []int32 // cnt[i] dominators for rows[i]
	cols []int32 // concatenated dominator columns, len = Σ cnt
}

// SigGenIFParallelCtx is SigGenIFParallel with cancellation and worker panic
// containment. Each worker checks the context once per data page during the
// scan and once per chunk during the fold, so a cancelled pass returns
// promptly; a panicking worker is recovered into an error instead of
// crashing the process.
//
// Error handling is deterministic: the error reported is the first errored
// worker's (by worker index, not by completion time), and when any worker
// fails the entire fingerprint is discarded — a partially folded matrix is
// never returned.
func SigGenIFParallelCtx(ctx context.Context, ds *data.Dataset, sky []int, fam *minhash.Family, workers int) (*Fingerprint, error) {
	m := len(sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := ds.Len()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return SigGenIFCtx(ctx, ds, sky, fam)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := fam.Size()

	// Hoisted once, shared read-only by all workers: the prepared skyline
	// and the skyline membership bitset.
	prep := prepareSkyline(ds, sky)
	inSky := newBitset(n)
	for _, s := range sky {
		inSky.set(s)
	}

	// Page-aligned chunks: a chunk boundary is always a page boundary, so the
	// per-chunk budget charges add up to exactly the sequential page count.
	// Several chunks per worker smooth out load imbalance from dense regions.
	pageQuantum := pager.NewSequentialCounter(8*ds.Dims() + 4).RecordsPerPage()
	rowsPerChunk := (n + 8*workers - 1) / (8 * workers)
	rowsPerChunk = ((rowsPerChunk + pageQuantum - 1) / pageQuantum) * pageQuantum
	if rowsPerChunk < pageQuantum {
		rowsPerChunk = pageQuantum
	}
	numChunks := (n + rowsPerChunk - 1) / rowsPerChunk
	chunks := make([]ifChunk, numChunks)
	// Every worker allocates an m-entry score vector; one beyond the chunk
	// count would scan nothing, so none is started.
	workers = min(workers, numChunks)

	out := &Fingerprint{Matrix: minhash.NewMatrix(t, m), DomScore: make([]float64, m)}
	scores := make([][]float64, workers)
	errs := make([]error, workers)
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		scanWg sync.WaitGroup // phase barrier: all scans done before any fold
	)
	scanWg.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			released := false
			release := func() {
				if !released {
					released = true
					scanWg.Done()
				}
			}
			// Contain panics: one bad worker must never crash a serving
			// process — it surfaces as this worker's error instead. The
			// barrier is released on every exit path or phase 2 would
			// deadlock waiting for the failed scan.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("core: fingerprint worker %d panicked: %v", w, r)
					failed.Store(true)
				}
				release()
			}()
			if workerTestHook != nil {
				workerTestHook(w)
			}

			// Phase 1: claim row chunks until the cursor runs out.
			score := make([]float64, m)
			scores[w] = score
			pr := prep.probe()
			tracker := budget.From(ctx)
			for !failed.Load() {
				k := int(cursor.Add(1)) - 1
				if k >= numChunks {
					break
				}
				lo := k * rowsPerChunk
				hi := lo + rowsPerChunk
				if hi > n {
					hi = n
				}
				ch := &chunks[k]
				for i := lo; i < hi; i++ {
					if (i-lo)%pageQuantum == 0 {
						// Budget accounting mirrors the sequential pass: each
						// chunk charges the pages it scans, and chunk starts
						// are page-aligned, so the total equals the
						// sequential charge.
						if tracker != nil {
							tracker.ChargePages(1)
						}
						if err := ctx.Err(); err != nil {
							errs[w] = err
							failed.Store(true)
							return
						}
					}
					if inSky.get(i) || ds.Deleted(i) {
						continue
					}
					cols := pr.dominators(ds.Point(i))
					if len(cols) == 0 {
						continue
					}
					ch.rows = append(ch.rows, int32(i))
					ch.cnt = append(ch.cnt, int32(len(cols)))
					ch.cols = append(ch.cols, cols...)
					for _, c := range cols {
						score[c]++
					}
				}
			}
			release()
			scanWg.Wait()
			if failed.Load() {
				return
			}

			// Phase 2: fold this worker's slot stripe of every recorded row.
			sLo, sHi := w*t/workers, (w+1)*t/workers
			if sLo >= sHi {
				return
			}
			shv := make([]uint32, sHi-sLo)
			st := fam.Stepper(sLo, sHi)
			stripeMax := make([]uint32, m)
			for c := range stripeMax {
				stripeMax[c] = math.MaxUint32
			}
			for k := range chunks {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				ch := &chunks[k]
				base := 0
				for ri, row := range ch.rows {
					cs := ch.cols[base : base+int(ch.cnt[ri])]
					base += int(ch.cnt[ri])
					minSv := st.HashMin(shv, uint64(row))
					for _, c := range cs {
						// Stripe-max screen: hash values never exceed
						// MaxUint32−1, so a fresh column is always admitted.
						if minSv >= stripeMax[c] {
							continue
						}
						if nm, changed := out.Matrix.FoldStripe(int(c), sLo, sHi, shv); changed {
							stripeMax[c] = nm
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// First error by worker index wins, regardless of which worker failed
	// first in wall-clock time, so runs are reproducible.
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
	}
	for _, score := range scores {
		if score == nil {
			continue
		}
		for c, v := range score {
			out.DomScore[c] += v
		}
	}
	// The striped folds bypassed the matrix's screen bookkeeping; restore it
	// so later folds into this matrix screen correctly.
	out.Matrix.RefreshBounds()

	// The physical pass over the file is unchanged: one sequential read.
	counter := pager.NewSequentialCounter(8*ds.Dims() + 4)
	out.IO = pager.Stats{
		Reads:  int64(n),
		Faults: int64(counter.PagesForRecords(n)),
		Hits:   int64(n - counter.PagesForRecords(n)),
	}
	return out, nil
}
