package core

import (
	"context"
	"fmt"
	"io"

	"skydiver/internal/budget"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
)

// SigGenIFStreamCtx is the bounded-memory form of SigGenIFCtx: the same
// index-free signature pass — one sequential sweep folding every dominated
// row into its dominators' signatures — but over a streaming row source, so
// the dataset is never materialized. Memory is O(skyline + signatures).
//
// sky holds the skyline row ids ascending (source positions) and skyPts
// their coordinates, as produced by skyline.ComputeBNLExternalSource; the
// source must be tombstone-free and yield rows in id order. On the same
// rows, the resulting Fingerprint (matrix, domination scores and charged
// I/O) is bit-identical to SigGenIFCtx over the materialized dataset, which
// the tests pin.
func SigGenIFStreamCtx(ctx context.Context, src data.Source, sky []int, skyPts [][]float64, fam *minhash.Family) (*Fingerprint, error) {
	m := len(sky)
	if m == 0 {
		return nil, fmt.Errorf("core: empty skyline")
	}
	if len(skyPts) != m {
		return nil, fmt.Errorf("core: %d skyline ids but %d point rows", m, len(skyPts))
	}
	for j := 1; j < m; j++ {
		if sky[j] <= sky[j-1] {
			return nil, fmt.Errorf("core: skyline ids not ascending at %d", j)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	fp := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
	counter := pager.NewSequentialCounter(8*src.Dims() + 4)
	pageQuantum := counter.RecordsPerPage()

	pr := prepareSkylineFrom(src.Dims(), m, func(j int) []float64 { return skyPts[j] }).probe()

	n := src.Len()
	rf := newRowFolder(fam, fp, n)
	defer rf.release()
	tracker := budget.From(ctx)
	// skyCursor walks the ascending skyline ids in lockstep with the scan:
	// the streaming replacement for the in-memory bitset.
	skyCursor := 0
	for i := 0; i < n; i++ {
		if i%pageQuantum == 0 {
			// Charge the page the scan is about to consume, then poll: a query
			// whose page budget just ran out stops at this boundary and the
			// partial signatures are discarded, never silently merged.
			if tracker != nil {
				tracker.ChargePages(1)
			}
			if i > 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
		counter.Touch(i)
		p, err := src.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("core: source ended at row %d of %d", i, n)
		}
		if err != nil {
			return nil, err
		}
		if skyCursor < m && sky[skyCursor] == i {
			skyCursor++
			continue
		}
		if pr.dominatorSet(pr.set, p) {
			rf.fold(pr.set, uint64(i))
		}
	}
	rf.flush()
	fp.IO = counter.Stats()
	return fp, nil
}
