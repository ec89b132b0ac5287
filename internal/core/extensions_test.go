package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
)

// TestSigGenIFParallelIdentical: the parallel generator must produce output
// bit-for-bit identical to the sequential one, for several worker counts.
func TestSigGenIFParallelIdentical(t *testing.T) {
	ds := data.Anticorrelated(8000, 3, 6)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(64, 4)
	want, err := SigGenIF(ds, in.Sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 8, 16} {
		fam2, _ := minhash.NewFamily(64, 4)
		got, err := SigGenIFParallel(ds, in.Sky, fam2, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range in.Sky {
			if got.DomScore[j] != want.DomScore[j] {
				t.Fatalf("workers=%d: dom score %d differs", workers, j)
			}
			a, b := got.Matrix.Column(j), want.Matrix.Column(j)
			for s := range a {
				if a[s] != b[s] {
					t.Fatalf("workers=%d: column %d slot %d differs", workers, j, s)
				}
			}
		}
		// One sequential pass worth of faults either way.
		if got.IO.Faults != want.IO.Faults {
			t.Fatalf("workers=%d: faults %d != %d", workers, got.IO.Faults, want.IO.Faults)
		}
	}
}

func TestSigGenIFParallelDefaults(t *testing.T) {
	ds := data.Independent(2000, 3, 2)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(16, 1)
	if _, err := SigGenIFParallel(ds, in.Sky, fam, 0); err != nil {
		t.Fatal(err) // GOMAXPROCS default path
	}
	if _, err := SigGenIFParallel(ds, nil, fam, 2); err == nil {
		t.Error("expected empty-skyline error")
	}
}

func TestDiversifyRelativeBasic(t *testing.T) {
	// Candidates: three "plans"; reference: two workload clusters with
	// incomparable trade-offs (left: small x, larger y; right: large x, tiny
	// y). Candidate 0 covers the larger left cluster, candidate 1 the right
	// one, candidate 2 a subset of candidate 0's. The two diverse picks must
	// be 0 (seed, max footprint) and 1 (disjoint footprint, Jd = 1) — not 2,
	// whose footprint sits inside 0's.
	candidates, _ := data.FromRows("A", [][]float64{
		{0.10, 0.10}, // covers the left cluster only (y of right is smaller)
		{5.10, 0.01}, // covers the right cluster only (x of left is smaller)
		{0.15, 0.12}, // covers most of the left cluster: subset of 0's
	})
	var refRows [][]float64
	for i := 0; i < 60; i++ { // left cluster
		refRows = append(refRows, []float64{0.2 + float64(i%6)/10, 0.2 + float64(i/6)/100})
	}
	for i := 0; i < 40; i++ { // right cluster
		refRows = append(refRows, []float64{5.2 + float64(i%5)/10, 0.02 + float64(i/5)/1000})
	}
	reference, _ := data.FromRows("B", refRows)
	res, err := DiversifyRelative(candidates, reference, Config{K: 2, SignatureSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 0 {
		t.Errorf("seed = %d, want the max-footprint candidate 0", res.Selected[0])
	}
	if res.Selected[1] != 1 {
		t.Errorf("second pick = %d, want the disjoint candidate 1", res.Selected[1])
	}
}

func TestDiversifyRelativeValidation(t *testing.T) {
	a, _ := data.FromRows("A", [][]float64{{1, 2}})
	b3, _ := data.FromRows("B", [][]float64{{1, 2, 3}})
	if _, err := DiversifyRelative(a, b3, Config{K: 1}); err == nil {
		t.Error("expected dims mismatch error")
	}
	b2, _ := data.FromRows("B", [][]float64{{5, 5}})
	if _, err := DiversifyRelative(a, b2, Config{K: 2}); err == nil {
		t.Error("expected k > |A| error")
	}
	empty, _ := data.New("E", 2, nil)
	if _, err := DiversifyRelative(empty, b2, Config{K: 1}); err == nil {
		t.Error("expected empty-A error")
	}
}

// TestDiversifyRelativeMatchesExplicitSets: the estimated distances must
// track the exact Jaccard of explicit footprints.
func TestDiversifyRelativeAgainstExplicit(t *testing.T) {
	a := data.Independent(40, 3, 1)
	b := data.Independent(4000, 3, 2)
	res, err := DiversifyRelative(a, b, Config{K: 5, SignatureSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Footprints by brute force.
	foot := make([]map[int]bool, a.Len())
	for j := range foot {
		foot[j] = map[int]bool{}
		for i := 0; i < b.Len(); i++ {
			if geom.Dominates(a.Point(j), b.Point(i)) {
				foot[j][i] = true
			}
		}
	}
	// The selected seed must have the largest footprint.
	seed := res.Selected[0]
	for j := range foot {
		if len(foot[j]) > len(foot[seed]) {
			t.Errorf("seed footprint %d smaller than candidate %d's %d", len(foot[seed]), j, len(foot[j]))
			break
		}
	}
}

// TestDiversifyRelativeMatchesSigGenSets pins the relative fold to the
// reference: on IND A × B with duplicate rows inside each set and rows of A
// copied into B, every column and domination score of DiversifyRelative's
// fingerprint equals SigGenSets over the footprints geom.Dominates
// enumerates, with the same family, and so does the selection of
// DiversifySets on those footprints.
func TestDiversifyRelativeMatchesSigGenSets(t *testing.T) {
	for _, seed := range []int64{0, 1, 4, 7} {
		r := rand.New(rand.NewSource(seed))
		dup := func(ds *data.Dataset, extra [][]float64) *data.Dataset {
			rows := make([][]float64, 0, ds.Len()+len(extra))
			for i := range ds.Len() {
				rows = append(rows, ds.Point(i))
			}
			for range ds.Len() / 10 {
				rows = append(rows, rows[r.Intn(len(rows))])
			}
			out, err := data.FromRows(ds.Name(), append(rows, extra...))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		a := dup(data.Independent(150, 3, seed+10), nil)
		var fromA [][]float64
		for range 20 {
			fromA = append(fromA, a.Point(r.Intn(a.Len())))
		}
		b := dup(data.Independent(3000, 3, seed+20), fromA)
		lists := make([][]int, a.Len())
		for j := range lists {
			for i := range b.Len() {
				if geom.Dominates(a.Point(j), b.Point(i)) {
					lists[j] = append(lists[j], i)
				}
			}
		}
		cfg := Config{K: 6, SignatureSize: 64, Seed: seed}
		fam, _ := minhash.NewFamily(cfg.SignatureSize, cfg.Seed)
		want, err := SigGenSets(lists, fam)
		if err != nil {
			t.Fatal(err)
		}
		got, err := relativeFingerprint(context.Background(), a, b, fam)
		if err != nil {
			t.Fatal(err)
		}
		for c := range lists {
			if !slices.Equal(got.Matrix.Column(c), want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
				t.Fatalf("seed %d: column %d differs from the brute-force footprints", seed, c)
			}
		}
		rel, err := DiversifyRelative(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := DiversifySets(lists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rel.Selected, sets.Selected) || rel.ObjectiveValue != sets.ObjectiveValue {
			t.Fatalf("seed %d: selection %v (%v), DiversifySets %v (%v)", seed, rel.Selected, rel.ObjectiveValue, sets.Selected, sets.ObjectiveValue)
		}
		if wantIO := SyntheticScanStats(b.Dims(), b.Len()); rel.Stats.IO != wantIO {
			t.Fatalf("seed %d: I/O %+v, want one scan of B %+v", seed, rel.Stats.IO, wantIO)
		}
	}
}

// BenchmarkSigGenIFParallel is the headline parallel number: GOMAXPROCS
// workers, i.e. whatever the hardware offers. On a single-CPU host it
// delegates to the sequential pass (see SigGenIFParallelCtx); the fixed
// worker-count curve lives in BenchmarkSigGenIFParallelScale.
func BenchmarkSigGenIFParallel(b *testing.B) {
	ds := data.Independent(100000, 4, 1)
	in := testInput(b, ds)
	fam, _ := minhash.NewFamily(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SigGenIFParallel(ds, in.Sky, fam, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSigGenIFSequential(b *testing.B) {
	ds := data.Independent(100000, 4, 1)
	in := testInput(b, ds)
	fam, _ := minhash.NewFamily(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SigGenIF(ds, in.Sky, fam); err != nil {
			b.Fatal(err)
		}
	}
}
