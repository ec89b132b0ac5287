package data

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"skydiver/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, nil); err == nil {
		t.Error("expected error for zero dims")
	}
	if _, err := New("x", 3, make([]float64, 7)); err == nil {
		t.Error("expected error for non-divisible length")
	}
	ds, err := New("x", 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dims() != 2 || ds.Name() != "x" {
		t.Error("accessors broken")
	}
	if !geom.Equal(ds.Point(1), []float64{3, 4}) {
		t.Errorf("Point(1) = %v", ds.Point(1))
	}
	if len(ds.Values()) != 4 {
		t.Error("Values length")
	}
}

func TestFromRows(t *testing.T) {
	if _, err := FromRows("x", nil); err == nil {
		t.Error("expected error for empty rows")
	}
	if _, err := FromRows("x", [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for ragged rows")
	}
	ds, err := FromRows("x", [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || !geom.Equal(ds.Point(2), []float64{5, 6}) {
		t.Error("FromRows broken")
	}
}

func TestProject(t *testing.T) {
	ds, _ := FromRows("x", [][]float64{{1, 2, 3}, {4, 5, 6}})
	p, err := ds.Project(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 2 || !geom.Equal(p.Point(1), []float64{4, 5}) {
		t.Errorf("Project broken: %v", p.Point(1))
	}
	if same, _ := ds.Project(3); same != ds {
		t.Error("full projection should return the receiver")
	}
	if _, err := ds.Project(4); err == nil {
		t.Error("expected error for widening projection")
	}
	if _, err := ds.Project(0); err == nil {
		t.Error("expected error for zero projection")
	}
}

func TestBounds(t *testing.T) {
	ds, _ := FromRows("x", [][]float64{{1, 5}, {3, 2}, {2, 4}})
	b := ds.Bounds()
	if !geom.Equal(b.Lo, []float64{1, 2}) || !geom.Equal(b.Hi, []float64{3, 5}) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestCanonicalize(t *testing.T) {
	ds, _ := FromRows("x", [][]float64{{1, 5}, {3, 2}})
	c, err := ds.Canonicalize(geom.Preferences{geom.Min, geom.Max})
	if err != nil {
		t.Fatal(err)
	}
	if !geom.Equal(c.Point(0), []float64{1, -5}) {
		t.Errorf("Canonicalize = %v", c.Point(0))
	}
	// Original untouched.
	if !geom.Equal(ds.Point(0), []float64{1, 5}) {
		t.Error("Canonicalize mutated original")
	}
	if _, err := ds.Canonicalize(geom.Preferences{geom.Min}); err == nil {
		t.Error("expected preference validation error")
	}
}

func TestRoundTrip(t *testing.T) {
	ds := Independent(500, 4, 7)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != ds.Name() || got.Len() != ds.Len() || got.Dims() != ds.Dims() {
		t.Fatal("round-trip metadata mismatch")
	}
	for i := 0; i < ds.Len(); i++ {
		if !geom.Equal(got.Point(i), ds.Point(i)) {
			t.Fatalf("round-trip point %d mismatch", i)
		}
	}
}

func TestReadCorrupt(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error for truncated header")
	}
	bad := make([]byte, 24)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func() *Dataset{
		"ind":   func() *Dataset { return Independent(200, 3, 42) },
		"ant":   func() *Dataset { return Anticorrelated(200, 3, 42) },
		"corr":  func() *Dataset { return Correlated(200, 3, 42) },
		"fc":    func() *Dataset { return SyntheticForestCover(200, 42) },
		"rec":   func() *Dataset { return SyntheticRecipes(200, 42) },
		"clust": func() *Dataset { return Clustered(200, 3, 4, 42) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			a, b := gen(), gen()
			if a.Len() != 200 {
				t.Fatalf("wrong length %d", a.Len())
			}
			for i := 0; i < a.Len(); i++ {
				if !geom.Equal(a.Point(i), b.Point(i)) {
					t.Fatalf("generator %s not deterministic at %d", name, i)
				}
			}
		})
	}
}

func TestGeneratorRanges(t *testing.T) {
	for _, ds := range []*Dataset{
		Independent(1000, 4, 1),
		Anticorrelated(1000, 4, 1),
		Correlated(1000, 4, 1),
		Clustered(1000, 4, 5, 1),
	} {
		b := ds.Bounds()
		for j := 0; j < ds.Dims(); j++ {
			if b.Lo[j] < 0 || b.Hi[j] > 1 {
				t.Errorf("%s: dim %d out of [0,1]: [%v, %v]", ds.Name(), j, b.Lo[j], b.Hi[j])
			}
		}
	}
}

// TestAnticorrelation verifies the ANT generator actually produces negative
// pairwise correlation and IND does not.
func TestAnticorrelation(t *testing.T) {
	ant := Anticorrelated(20000, 2, 3)
	ind := Independent(20000, 2, 3)
	if c := pearson(ant, 0, 1); c > -0.3 {
		t.Errorf("ANT correlation = %v, want strongly negative", c)
	}
	if c := pearson(ind, 0, 1); math.Abs(c) > 0.05 {
		t.Errorf("IND correlation = %v, want ~0", c)
	}
	corr := Correlated(20000, 2, 3)
	if c := pearson(corr, 0, 1); c < 0.5 {
		t.Errorf("CORR correlation = %v, want strongly positive", c)
	}
}

func pearson(ds *Dataset, a, b int) float64 {
	n := float64(ds.Len())
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Point(i)[a], ds.Point(i)[b]
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	return cov / math.Sqrt(va*vb)
}

// TestForestCoverTraits: integer values (ties) and positive correlation via
// the latent factor.
func TestForestCoverTraits(t *testing.T) {
	fc := SyntheticForestCover(5000, 9)
	if fc.Dims() != 7 {
		t.Fatalf("FC dims = %d", fc.Dims())
	}
	for i := 0; i < fc.Len(); i++ {
		for _, v := range fc.Point(i) {
			if v != math.Trunc(v) {
				t.Fatal("FC values must be integers")
			}
		}
	}
	if c := pearson(fc, 0, 4); c < 0.2 {
		t.Errorf("FC elevation/roadways correlation = %v, want positive", c)
	}
}

// TestRecipesTraits: exact zeros present, heavy right tail, non-negative.
func TestRecipesTraits(t *testing.T) {
	rec := SyntheticRecipes(5000, 9)
	if rec.Dims() != 7 {
		t.Fatalf("REC dims = %d", rec.Dims())
	}
	zeros := 0
	for i := 0; i < rec.Len(); i++ {
		for _, v := range rec.Point(i) {
			if v < 0 {
				t.Fatal("REC values must be non-negative")
			}
			if v == 0 {
				zeros++
			}
		}
	}
	if frac := float64(zeros) / float64(rec.Len()*7); frac < 0.02 || frac > 0.25 {
		t.Errorf("REC zero fraction = %v, want a substantial minority", frac)
	}
}

func TestDefaultCardinalities(t *testing.T) {
	// Only check the constants, not full generation (too slow for unit tests).
	if forestCoverRows != 581012 || recipesRows != 364000 {
		t.Error("paper cardinalities changed")
	}
}

func TestHumanCount(t *testing.T) {
	tests := map[int]string{
		5000000: "5M",
		581012:  "581K",
		10000:   "10K",
		500:     "500",
	}
	for n, want := range tests {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestClampQuick(t *testing.T) {
	f := func(v float64) bool {
		c := clamp01(v)
		return c >= 0 && c <= 1 && (v < 0 || v > 1 || c == v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPickWeighted(t *testing.T) {
	// Weighted picks must respect proportions roughly.
	ds := SyntheticForestCover(1, 1) // touch the path
	_ = ds
	counts := make([]int, 3)
	r := newTestRand()
	w := []float64{0.5, 0.3, 0.2}
	for i := 0; i < 30000; i++ {
		counts[pickWeighted(r, w)]++
	}
	for i, wi := range w {
		frac := float64(counts[i]) / 30000
		if math.Abs(frac-wi) > 0.02 {
			t.Errorf("component %d frequency %v, want %v", i, frac, wi)
		}
	}
}

func BenchmarkIndependent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Independent(10000, 4, int64(i))
	}
}

func BenchmarkAnticorrelated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Anticorrelated(10000, 4, int64(i))
	}
}
