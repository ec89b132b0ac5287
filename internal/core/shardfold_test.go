package core

import (
	"context"
	"testing"

	"skydiver/internal/minhash"
	"skydiver/internal/skyline"
)

// TestShardFingerprintMergesIdentical pins the unit of remote execution:
// folding each of a query's S shards, the page ranges of the dataset, with
// FoldRange and merging the folds by per-slot minima and score sums
// reproduces the unsharded SigGen-IF pass bit for bit, for shard counts
// that do and do not divide the data pages and for more shards than pages.
func TestShardFingerprintMergesIdentical(t *testing.T) {
	for name, ds := range shardTestDatasets() {
		sky := skyline.ComputeSFS(ds)
		fam, _ := minhash.NewFamily(64, 9)
		want, err := SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		pages := (ds.Len() + recordsPerPage(ds.Dims()) - 1) / recordsPerPage(ds.Dims())
		for _, n := range []int{1, 2, 3, 4, pages, pages + 3} {
			m := len(sky)
			merged := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
			end := 0 // where the previous range ended
			for i := range n {
				lo, hi := PageRange(ds, i, n)
				if lo != end || hi < lo {
					t.Fatalf("%s/n=%d: range %d is [%d, %d), the previous one ended at %d", name, n, i, lo, hi, end)
				}
				if n <= pages && lo == hi {
					t.Fatalf("%s/n=%d: range %d is empty with %d pages", name, n, i, pages)
				}
				end = hi
				fp, err := FoldRange(context.Background(), ds, sky, fam, lo, hi)
				if err != nil {
					t.Fatalf("%s/n=%d shard %d: %v", name, n, i, err)
				}
				for c := 0; c < m; c++ {
					merged.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
					merged.DomScore[c] += fp.DomScore[c]
				}
			}
			if end != ds.Len() {
				t.Fatalf("%s/n=%d: ranges end at %d, not %d", name, n, end, ds.Len())
			}
			for c := range sky {
				if merged.DomScore[c] != want.DomScore[c] {
					t.Fatalf("%s/n=%d: merged DomScore[%d] = %v, want %v",
						name, n, c, merged.DomScore[c], want.DomScore[c])
				}
				gc, wc := merged.Matrix.Column(c), want.Matrix.Column(c)
				for s := range wc {
					if gc[s] != wc[s] {
						t.Fatalf("%s/n=%d: merged col %d slot %d = %d, want %d", name, n, c, s, gc[s], wc[s])
					}
				}
			}
		}
	}
}
