package skyline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/rtree"
)

// mustBulkLoadT builds an rtree from a dataset known to be valid, failing
// the test on error.
func mustBulkLoadT(tb testing.TB, ds *data.Dataset) *rtree.Tree {
	tb.Helper()
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		tb.Fatalf("bulk load: %v", err)
	}
	return tr
}

// scans are the in-memory skyline algorithms the tests run side by side.
var scans = []struct {
	name    string
	compute func(*data.Dataset) []int
}{{"naive", ComputeNaive}, {"bnl", ComputeBNL}, {"sfs", ComputeSFS}}

func TestKnown2DSkyline(t *testing.T) {
	// Classic hotel example: minimize price (x) and distance (y).
	ds, _ := data.FromRows("hotels", [][]float64{
		{1, 9}, // 0: skyline
		{2, 7}, // 1: skyline
		{4, 4}, // 2: skyline
		{5, 6}, // 3: dominated by 2
		{3, 8}, // 4: dominated by 1
		{7, 1}, // 5: skyline
		{8, 2}, // 6: dominated by 5
		{9, 9}, // 7: dominated by all
	})
	want := []int{0, 1, 2, 5}
	for _, algo := range scans {
		got := algo.compute(ds)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: skyline = %v, want %v", algo.name, got, want)
		}
	}
	tr := mustBulkLoadT(t, ds)
	got, err := ComputeBBS(tr)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bbs: skyline = %v, want %v", got, want)
	}
}

func TestSinglePointAndEmpty(t *testing.T) {
	one, _ := data.FromRows("one", [][]float64{{1, 2}})
	for _, algo := range scans {
		if got := algo.compute(one); len(got) != 1 || got[0] != 0 {
			t.Errorf("%v single point: %v", algo.name, got)
		}
	}
	empty, _ := data.New("empty", 2, nil)
	for _, algo := range scans {
		if got := algo.compute(empty); len(got) != 0 {
			t.Errorf("%v empty: %v", algo.name, got)
		}
	}
	tr := mustBulkLoadT(t, empty)
	if got, err := ComputeBBS(tr); err != nil || len(got) != 0 {
		t.Errorf("bbs empty: %v %v", got, err)
	}
}

func TestAllAlgorithmsAgreeContinuous(t *testing.T) {
	cases := []*data.Dataset{
		data.Independent(3000, 2, 1),
		data.Independent(3000, 4, 2),
		data.Anticorrelated(2000, 3, 3),
		data.Correlated(3000, 4, 4),
		data.Clustered(2000, 3, 5, 5),
	}
	for _, ds := range cases {
		t.Run(ds.Name(), func(t *testing.T) {
			want := ComputeNaive(ds)
			for _, algo := range scans[1:] {
				got := algo.compute(ds)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v disagrees with naive: %d vs %d points", algo.name, len(got), len(want))
				}
			}
			tr := mustBulkLoadT(t, ds)
			got, err := ComputeBBS(tr)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("bbs disagrees with naive: %d vs %d points", len(got), len(want))
			}
		})
	}
}

// keyset renders the skyline as a set of coordinate strings, so that
// algorithms choosing different representatives among duplicate points still
// compare equal.
func keyset(ds *data.Dataset, idx []int) map[string]bool {
	m := make(map[string]bool, len(idx))
	for _, i := range idx {
		m[fmt.Sprint(ds.Point(i))] = true
	}
	return m
}

func TestAllAlgorithmsAgreeWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rows := make([][]float64, 4000)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(10)), float64(rng.Intn(10)), float64(rng.Intn(10))}
	}
	ds, _ := data.FromRows("quantized", rows)
	want := keyset(ds, ComputeNaive(ds))
	check := func(name string, got []int) {
		t.Helper()
		ks := keyset(ds, got)
		if len(ks) != len(want) {
			t.Fatalf("%s: %d distinct skyline points, want %d", name, len(ks), len(want))
		}
		for k := range ks {
			if !want[k] {
				t.Fatalf("%s: unexpected skyline point %s", name, k)
			}
		}
		// Exactly one representative per distinct point.
		if len(got) != len(ks) {
			t.Fatalf("%s: %d indexes for %d distinct points (duplicates leaked)", name, len(got), len(ks))
		}
	}
	check("bnl", ComputeBNL(ds))
	check("sfs", ComputeSFS(ds))
	tr := mustBulkLoadT(t, ds)
	got, err := ComputeBBS(tr)
	if err != nil {
		t.Fatal(err)
	}
	check("bbs", got)
}

// TestSkylineProperty checks the defining property on random data: no
// skyline point is dominated, and every non-skyline point is dominated by
// (or equal to) some skyline point.
func TestSkylineProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ds := data.Anticorrelated(1000, 3, seed)
		sky := ComputeSFS(ds)
		inSky := make(map[int]bool, len(sky))
		for _, s := range sky {
			inSky[s] = true
		}
		for _, s := range sky {
			for j := 0; j < ds.Len(); j++ {
				if geom.Dominates(ds.Point(j), ds.Point(s)) {
					t.Fatalf("skyline point %d dominated by %d", s, j)
				}
			}
		}
		for i := 0; i < ds.Len(); i++ {
			if inSky[i] {
				continue
			}
			covered := false
			for _, s := range sky {
				if geom.Dominates(ds.Point(s), ds.Point(i)) || geom.Equal(ds.Point(s), ds.Point(i)) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("non-skyline point %d not dominated by any skyline point", i)
			}
		}
	}
}

// TestSkylineCardinalityTrend: ANT skylines are much larger than IND, which
// are larger than CORR — the driver of the paper's cardinality-explosion
// motivation.
func TestSkylineCardinalityTrend(t *testing.T) {
	n := 20000
	ant := len(ComputeSFS(data.Anticorrelated(n, 4, 9)))
	ind := len(ComputeSFS(data.Independent(n, 4, 9)))
	corr := len(ComputeSFS(data.Correlated(n, 4, 9)))
	if !(ant > 3*ind && ind > 3*corr) {
		t.Errorf("cardinality trend violated: ant=%d ind=%d corr=%d", ant, ind, corr)
	}
}

// TestBBSProgressiveIO: BBS on a strongly correlated dataset should read far
// fewer pages than the tree holds (I/O optimality in spirit).
func TestBBSProgressiveIO(t *testing.T) {
	ds := data.Correlated(50000, 3, 13)
	tr := mustBulkLoadT(t, ds)
	tr.Reopen(0.2)
	tr.ResetStats()
	if _, err := ComputeBBS(tr); err != nil {
		t.Fatal(err)
	}
	if reads := tr.Stats().Reads; reads > int64(tr.NumPages())/2 {
		t.Errorf("BBS read %d of %d pages; expected strong pruning", reads, tr.NumPages())
	}
}

func TestSortedOutput(t *testing.T) {
	ds := data.Independent(5000, 3, 55)
	for _, algo := range scans {
		got := algo.compute(ds)
		if !sort.IntsAreSorted(got) {
			t.Errorf("%v output not sorted", algo.name)
		}
	}
}

func BenchmarkBNL(b *testing.B) {
	ds := data.Independent(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeBNL(ds)
	}
}

func BenchmarkSFS(b *testing.B) {
	ds := data.Independent(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSFS(ds)
	}
}

func BenchmarkBBS(b *testing.B) {
	ds := data.Independent(20000, 4, 1)
	tr := mustBulkLoadT(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeBBS(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestComputeDCAgainstNaive(t *testing.T) {
	cases := []*data.Dataset{
		data.Independent(5000, 2, 21),
		data.Independent(5000, 4, 22),
		data.Anticorrelated(3000, 3, 23),
		data.Correlated(5000, 4, 24),
	}
	for _, ds := range cases {
		want := ComputeNaive(ds)
		got := ComputeDC(ds)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: D&C %d points, naive %d", ds.Name(), len(got), len(want))
		}
	}
}

func TestComputeDCWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, 5000)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(10)), float64(rng.Intn(10))}
	}
	ds, _ := data.FromRows("dc-ties", rows)
	want := keyset(ds, ComputeNaive(ds))
	got := keyset(ds, ComputeDC(ds))
	if len(got) != len(want) {
		t.Fatalf("D&C %d distinct points, naive %d", len(got), len(want))
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("unexpected skyline point %s", k)
		}
	}
}

func TestComputeDCAllSameFirstCoord(t *testing.T) {
	// Degenerate split: every point shares the first coordinate; the
	// algorithm must fall back rather than recurse forever.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{7, rng.Float64(), rng.Float64()}
	}
	ds, _ := data.FromRows("flat", rows)
	want := ComputeNaive(ds)
	got := ComputeDC(ds)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("degenerate split broken: %d vs %d", len(got), len(want))
	}
}

func TestBBSProgressiveOrderAndEarlyStop(t *testing.T) {
	ds := data.Independent(5000, 3, 77)
	tr := mustBulkLoadT(t, ds)
	var l1s []float64
	err := ComputeBBSProgressive(tr, func(_ int, p []float64) bool {
		l1s = append(l1s, geom.L1(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(l1s) != len(ComputeNaive(ds)) {
		t.Fatal("progressive BBS missed points")
	}
	// Progressiveness: points stream in ascending L1 order.
	for i := 1; i < len(l1s); i++ {
		if l1s[i] < l1s[i-1] {
			t.Fatalf("BBS not progressive: L1 %v after %v", l1s[i], l1s[i-1])
		}
	}
	// Early stop after 3 points.
	count := 0
	tr.ResetStats()
	err = ComputeBBSProgressive(tr, func(int, []float64) bool {
		count++
		return count < 3
	})
	if err != nil || count != 3 {
		t.Fatalf("early stop: count=%d err=%v", count, err)
	}
}

func BenchmarkDC(b *testing.B) {
	ds := data.Independent(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDC(ds)
	}
}
