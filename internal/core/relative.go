package core

import (
	"context"
	"fmt"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
)

// DiversifyRelative implements the first future-work direction of Section 6:
// diversify a set A based on its dominance relationships over another set B,
// where A is not necessarily a Pareto-optimal (skyline) set. For each item
// a ∈ A the footprint Γ_B(a) = {b ∈ B : a ≺ b} plays the role the dominated
// set plays in the skyline setting; diversity is the Jaccard distance of the
// footprints, estimated from MinHash signatures built in one pass over B.
//
// Typical uses: picking k representative products from a shortlist A judged
// against the full market B, or k diverse query plans judged by the
// workloads they improve.
//
// Both datasets must share a dimensionality and the min-preferred
// orientation. Items of A with empty footprints are legal; identical
// footprints have distance 0. The run is SkyDiver-MH with A in the
// skyline's place, so Selected and DataIndexes are both positions in A.
func DiversifyRelative(a, b *data.Dataset, cfg Config) (*Result, error) {
	if a.Len() == 0 {
		return nil, fmt.Errorf("core: empty candidate set A")
	}
	if a.Dims() != b.Dims() {
		return nil, fmt.Errorf("core: A has %d dims, B has %d", a.Dims(), b.Dims())
	}
	in := Input{Sky: positions(a.Len()), Builder: func(ctx context.Context, fam *minhash.Family) (*Fingerprint, error) {
		return relativeFingerprint(ctx, a, b, fam)
	}}
	return SkyDiverMHCtx(context.Background(), in, cfg)
}

// relativeFingerprint is DiversifyRelative's Phase 1: A is prepared as the
// skyline of the prefix-bitset kernel, and each row of B, hashed as its
// index, is folded into the footprints of the items of A dominating it.
func relativeFingerprint(ctx context.Context, a, b *data.Dataset, fam *minhash.Family) (*Fingerprint, error) {
	pr := prepareSkylineFrom(a.Dims(), a.Len(), a.Point).probe()
	return SigGenFunc(ctx, fam, a.Len(), b.Len(), b.Dims(), func(row int, set []uint64) (bool, error) {
		return pr.dominatorSet(set, b.Point(row)), nil
	})
}

// positions returns 0, 1, …, m−1: the skyline of an input whose every item
// is a column, so selected positions are their own data indexes.
func positions(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}
