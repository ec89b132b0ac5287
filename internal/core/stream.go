package core

import (
	"context"
	"fmt"
	"io"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
)

// SigGenIFStreamCtx is the bounded-memory form of SigGenIFCtx: the same
// index-free signature pass — one sequential sweep folding every dominated
// row into its dominators' signatures — but over a streaming row source, so
// the dataset is never materialized. Memory is O(skyline + signatures).
//
// sky holds the skyline row ids ascending (source positions) and skyPts
// their coordinates, as produced by skyline.ComputeBNLExternalSource; the
// source must be tombstone-free and yield rows in id order. The pass is the
// source's caller of SigGenFunc: each row is read as the page loop reaches
// it and probed against the prepared skyline points. On the same rows, the
// resulting Fingerprint (matrix, domination scores and charged I/O) is
// bit-identical to SigGenIFCtx over the materialized dataset, which the
// tests pin.
func SigGenIFStreamCtx(ctx context.Context, src data.Source, sky []int, skyPts [][]float64, fam *minhash.Family) (*Fingerprint, error) {
	m := len(sky)
	if len(skyPts) != m {
		return nil, fmt.Errorf("core: %d skyline ids but %d point rows", m, len(skyPts))
	}
	for j := 1; j < m; j++ {
		if sky[j] <= sky[j-1] {
			return nil, fmt.Errorf("core: skyline ids not ascending at %d", j)
		}
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	pr := prepareSkylineFrom(src.Dims(), m, func(j int) []float64 { return skyPts[j] }).probe()
	n := src.Len()
	// skyCursor walks the ascending skyline ids in lockstep with the scan:
	// the streaming replacement for the in-memory bitset.
	skyCursor := 0
	return SigGenFunc(ctx, fam, m, n, src.Dims(), func(row int, set []uint64) (bool, error) {
		p, err := src.Next()
		if err == io.EOF {
			return false, fmt.Errorf("core: source ended at row %d of %d", row, n)
		}
		if err != nil {
			return false, err
		}
		if skyCursor < m && sky[skyCursor] == row {
			skyCursor++
			return false, nil
		}
		return pr.dominatorSet(set, p), nil
	})
}
