package core

import (
	"context"
	"fmt"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/dispersion"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/skyline"
)

// TestLazySelectionMatchesEagerOnFingerprints pins the lazy greedy loop to
// the eager one on real Phase-1 output: SigGen-IF fingerprints of IND and
// ANT data, under both the MinHash estimate and the LSH Hamming distance.
// Real estimates tie far more often than random reals (t = 100 slots give
// 101 distance levels, LSH a handful), so this exercises the tie-breaks on
// the distributions the pipelines actually select from.
func TestLazySelectionMatchesEagerOnFingerprints(t *testing.T) {
	sets := []struct {
		name string
		ds   *data.Dataset
	}{
		{"IND-50K-5D", data.Independent(50000, 5, 3)},
		{"ANT-20K-4D", data.Anticorrelated(20000, 4, 5)},
	}
	for _, set := range sets {
		sky := skyline.ComputeSFS(set.ds)
		m := len(sky)
		fam, err := minhash.NewFamily(DefaultSignatureSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := SigGenIF(set.ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		params, err := lsh.ChooseParams(DefaultSignatureSize, 0.2, 20)
		if err != nil {
			t.Fatal(err)
		}
		vectors, err := lsh.Build(fp.Matrix, params, 2)
		if err != nil {
			t.Fatal(err)
		}
		dists := map[string]dispersion.DistFunc{
			"MH":  func(i, j int) float64 { return fp.Matrix.EstimateJd(i, j) },
			"LSH": func(i, j int) float64 { return float64(vectors.Hamming(i, j)) },
		}
		for name, dist := range dists {
			for _, k := range []int{1, 2, 10, 40} {
				if k > m {
					continue
				}
				var eagerCalls, lazyCalls int
				want, err := dispersion.SelectDiverseSetEagerCtx(context.Background(), m, k,
					func(i, j int) float64 { eagerCalls++; return dist(i, j) }, fp.DomScore)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dispersion.SelectDiverseSetCtx(context.Background(), m, k,
					func(i, j int) float64 { lazyCalls++; return dist(i, j) }, fp.DomScore)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s m=%d k=%d: lazy picked %v, eager %v", set.name, name, m, k, got, want)
				}
				if lazyCalls > eagerCalls {
					t.Fatalf("%s %s m=%d k=%d: lazy made %d estimates, eager %d", set.name, name, m, k, lazyCalls, eagerCalls)
				}
				t.Logf("%s %s m=%d k=%d: %d estimates, eager %d", set.name, name, m, k, lazyCalls, eagerCalls)
			}
		}
	}
}
