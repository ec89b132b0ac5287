package skydiver

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"testing"
)

func hotelRows() [][]float64 {
	// price (min), rating (max).
	return [][]float64{
		{50, 3.0},  // 0: cheap, decent     -> skyline
		{90, 4.5},  // 1: mid, very good    -> skyline
		{200, 5.0}, // 2: pricey, perfect   -> skyline
		{120, 4.0}, // 3: dominated by 1
		{60, 2.0},  // 4: dominated by 0
		{250, 4.9}, // 5: dominated by 2
	}
}

func TestAlgorithmAndDistributionStrings(t *testing.T) {
	for a, want := range map[Algorithm]string{MinHash: "MH", LSH: "LSH", Greedy: "SG", Exact: "BF", Algorithm(9): "unknown"} {
		if a.String() != want {
			t.Errorf("Algorithm(%d).String() = %q", a, a.String())
		}
	}
	for d, want := range map[Distribution]string{Independent: "IND", Anticorrelated: "ANT", Correlated: "CORR", ForestCover: "FC", Recipes: "REC", Distribution(9): "unknown"} {
		if d.String() != want {
			t.Errorf("Distribution(%d).String() = %q", d, d.String())
		}
	}
}

func TestNewDatasetWithPreferences(t *testing.T) {
	ds, err := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 6 || ds.Dims() != 2 || ds.Name() != "hotels" {
		t.Error("accessors broken")
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(sky)
	want := []int{0, 1, 2}
	if len(sky) != 3 {
		t.Fatalf("skyline = %v, want %v", sky, want)
	}
	for i := range want {
		if sky[i] != want[i] {
			t.Fatalf("skyline = %v, want %v", sky, want)
		}
	}
	if m, _ := ds.SkylineSize(); m != 3 {
		t.Error("SkylineSize mismatch")
	}
	// Original orientation preserved.
	if ds.Point(2)[1] != 5.0 {
		t.Error("Point must return original orientation")
	}
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset("x", nil, nil); err == nil {
		t.Error("expected error for empty rows")
	}
	if _, err := NewDataset("x", hotelRows(), []Pref{Min}); err == nil {
		t.Error("expected error for preference length mismatch")
	}
}

func TestDiversifyAllAlgorithms(t *testing.T) {
	ds, err := Generate(Anticorrelated, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ds.SkylineSize()
	if err != nil {
		t.Fatal(err)
	}
	if m < 10 {
		t.Fatalf("ANT skyline too small: %d", m)
	}
	for _, algo := range []Algorithm{MinHash, LSH, Greedy} {
		res, err := ds.Diversify(Options{K: 5, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Indexes) != 5 || len(res.Points) != 5 {
			t.Fatalf("%v: wrong result size", algo)
		}
		div, err := ds.ExactDiversity(res.Indexes)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if div <= 0 {
			t.Errorf("%v: non-positive exact diversity", algo)
		}
		if res.CPUTime <= 0 {
			t.Errorf("%v: no CPU time measured", algo)
		}
	}
	// Index-based fingerprinting path.
	res, err := ds.Diversify(Options{K: 5, UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFaults == 0 {
		t.Error("IB run must report page faults")
	}
}

func TestDiversifyExactSmall(t *testing.T) {
	ds, err := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Diversify(Options{K: 2, Algorithm: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) != 2 {
		t.Fatal("wrong size")
	}
}

func TestDiversifyValidation(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	if _, err := ds.Diversify(Options{K: 0}); err == nil {
		t.Error("expected K validation error")
	}
	if _, err := ds.Diversify(Options{K: 99}); err == nil {
		t.Error("expected K > m error")
	}
	if _, err := ds.Diversify(Options{K: 2, Algorithm: Algorithm(42)}); err == nil {
		t.Error("expected unknown algorithm error")
	}
}

// TestQuerySizeBounds: options that size an allocation — a fingerprint or
// LSH bit-vectors beyond the cap, a shard count above the live row count —
// and LSH parameters out of range (a negative bucket count, a threshold
// outside (0, 1) or NaN) fail with ErrInvalidOptions on the plain,
// resilient and remote paths alike.
func TestQuerySizeBounds(t *testing.T) {
	_, urls := startShardWorkers(t, 1)
	ds, err := Generate(Independent, 2000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{K: 3, SignatureSize: 1 << 30},
		{K: 3, SignatureSize: 1 << 30, AllowDegraded: true},
		{K: 3, SignatureSize: 1 << 30, Remote: &RemoteOptions{Workers: urls}},
		{K: 3, Shards: ds.LiveLen() + 1},
		{K: 3, Shards: ds.LiveLen() + 1, Budget: Budget{MaxEstimations: 1 << 20}},
		{K: 3, Shards: ds.LiveLen() + 1, Remote: &RemoteOptions{Workers: urls}},
		{K: 3, Algorithm: LSH, LSHBuckets: 1 << 40},
		{K: 3, Algorithm: LSH, LSHBuckets: 1 << 40, AllowDegraded: true},
		{K: 3, Algorithm: LSH, LSHBuckets: 1 << 40, Remote: &RemoteOptions{Workers: urls}},
		{K: 3, Algorithm: LSH, LSHBuckets: -1},
		{K: 3, Algorithm: LSH, LSHBuckets: -1, AllowDegraded: true},
		{K: 3, Algorithm: LSH, LSHBuckets: -1, Remote: &RemoteOptions{Workers: urls}},
		{K: 3, Algorithm: LSH, LSHThreshold: math.NaN()},
		{K: 3, Algorithm: LSH, LSHThreshold: math.NaN(), AllowDegraded: true},
		{K: 3, Algorithm: LSH, LSHThreshold: math.NaN(), Remote: &RemoteOptions{Workers: urls}},
		{K: 3, Algorithm: LSH, LSHThreshold: 1.5},
		{K: 3, Algorithm: LSH, LSHThreshold: -0.2, AllowDegraded: true},
		{K: 3, Algorithm: LSH, LSHThreshold: 1, Remote: &RemoteOptions{Workers: urls}},
	} {
		if _, err := ds.Diversify(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("t=%d shards=%d ξ=%v B=%d degraded=%v remote=%v: err = %v, want ErrInvalidOptions",
				opts.SignatureSize, opts.Shards, opts.LSHThreshold, opts.LSHBuckets, opts.AllowDegraded, opts.Remote != nil, err)
		}
	}
}

func TestDiversifyDeterministic(t *testing.T) {
	ds, _ := Generate(Independent, 3000, 3, 5)
	a, err := ds.Diversify(Options{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Diversify(Options{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Indexes {
		if a.Indexes[i] != b.Indexes[i] {
			t.Fatal("same seed must give same result")
		}
	}
}

func TestExactDiversityValidation(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	if _, err := ds.Skyline(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ExactDiversity([]int{3}); err == nil {
		t.Error("expected error for non-skyline index")
	}
}

func TestDominationScore(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	// Hotel 1 (90, 4.5) dominates hotel 3 (120, 4.0) only.
	got, err := ds.DominationScore(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("DominationScore(1) = %d, want 1", got)
	}
	if _, err := ds.DominationScore(-1); err == nil {
		t.Error("expected range error")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Independent, 0, 2, 1); err == nil {
		t.Error("expected cardinality error")
	}
	if _, err := Generate(Distribution(42), 10, 2, 1); err == nil {
		t.Error("expected unknown distribution error")
	}
	if _, err := Generate(ForestCover, 10, 99, 1); err == nil {
		t.Error("expected projection error")
	}
	fc, err := Generate(ForestCover, 500, 5, 1)
	if err != nil || fc.Dims() != 5 {
		t.Error("FC projection broken")
	}
	rec, err := Generate(Recipes, 500, 4, 1)
	if err != nil || rec.Dims() != 4 {
		t.Error("REC projection broken")
	}
}

func TestDiversifyGraphFigure1(t *testing.T) {
	gamma := [][]int{
		{0},                    // a
		{1, 2, 3, 4, 5, 6},     // b
		{4, 5, 6, 7, 8, 9, 10}, // c
		{7, 8, 9},              // d
	}
	sel, err := DiversifyGraph(gamma, 2, Options{SignatureSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 2 {
		t.Errorf("seed = %d, want c (2)", sel[0])
	}
	if sel[1] != 0 {
		t.Errorf("second = %d, want a (0)", sel[1])
	}
}

func TestResultPointsAreCopies(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	res, err := ds.Diversify(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.Points[0][0] = -999
	if ds.Point(res.Indexes[0])[0] == -999 {
		t.Error("Result.Points alias dataset storage")
	}
}

func TestSkylineProgressive(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	var got []int
	err := ds.SkylineProgressive(func(idx int, p []float64) bool {
		got = append(got, idx)
		if len(p) != 2 {
			t.Fatal("wrong point width")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sky, _ := ds.Skyline()
	if len(got) != len(sky) {
		t.Fatalf("progressive saw %d points, skyline has %d", len(got), len(sky))
	}
	// Early termination.
	count := 0
	ds.SkylineProgressive(func(int, []float64) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestSkylineUsingAllAlgorithmsAgree(t *testing.T) {
	ds, _ := Generate(Anticorrelated, 3000, 3, 21)
	want, err := ds.SkylineUsing(BBS)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []SkylineAlgorithm{BNL, SFS, DC} {
		got, err := ds.SkylineUsing(algo)
		if err != nil {
			t.Fatalf("%d: %v", algo, err)
		}
		if len(got) != len(want) {
			t.Fatalf("algo %d: %d points, want %d", algo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("algo %d disagrees at %d", algo, i)
			}
		}
	}
	if _, err := ds.SkylineUsing(SkylineAlgorithm(42)); err == nil {
		t.Error("expected unknown algorithm error")
	}
}

func TestTopKDominatingPublic(t *testing.T) {
	ds, _ := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	idx, scores, err := ds.TopKDominating(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || scores[0] < scores[1] {
		t.Fatalf("top-k broken: %v %v", idx, scores)
	}
	// Each reported score matches DominationScore.
	for i := range idx {
		s, err := ds.DominationScore(idx[i])
		if err != nil || s != scores[i] {
			t.Fatalf("score mismatch for %d: %d vs %d", idx[i], scores[i], s)
		}
	}
	if _, _, err := ds.TopKDominating(0); err == nil {
		t.Error("expected k validation error")
	}
}

func TestLoadSaveDatasetRoundTrip(t *testing.T) {
	ds, err := Generate(Recipes, 400, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.SaveDataset(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Dims() != ds.Dims() {
		t.Fatal("round trip metadata mismatch")
	}
	for i := 0; i < ds.Len(); i++ {
		for j := 0; j < ds.Dims(); j++ {
			if got.Point(i)[j] != ds.Point(i)[j] {
				t.Fatalf("point %d mismatch", i)
			}
		}
	}
	if _, err := LoadDataset(bytes.NewReader([]byte{1}), nil); err == nil {
		t.Error("expected error for corrupt input")
	}
}
