package skydiver

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"skydiver/internal/data"
)

// sameBits reports whether a and b hold exactly the same float64 bit
// patterns, so +0.0 and −0.0 differ.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestUserOrientationBitExact: a Dataset keeps only its canonical rows, and
// every point it hands back is flipped to the user's orientation bit for
// bit — signed zeros and negative values included — through Point,
// Result.Points, SkylineProgressive and a SaveDataset → LoadDataset round
// trip, before and after an Insert and a Delete.
func TestUserOrientationBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	prefs := []Pref{Max, Min, Max}
	rows := [][]float64{
		{0, negZero, -1.5},
		{negZero, 0, 2.25},
		{-3.75, -0.5, negZero},
		{1e-300, -7, 0},
		{-2, 3, -1e300},
		{5, negZero, -4},
		{negZero, negZero, negZero},
	}
	ds, err := NewDataset("bits", rows, prefs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	want := append([][]float64(nil), rows...) // by row index

	check := func(stage string, save bool) {
		t.Helper()
		for i, w := range want {
			if p := ds.Point(i); !sameBits(p, w) {
				t.Fatalf("%s: Point(%d) = %v, want %v", stage, i, p, w)
			}
		}
		m, err := ds.SkylineSize()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ds.Diversify(Options{K: m, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, idx := range res.Indexes {
			if !sameBits(res.Points[j], want[idx]) {
				t.Fatalf("%s: Result.Points[%d] = %v, want row %d = %v", stage, j, res.Points[j], idx, want[idx])
			}
		}
		seen := 0
		err = ds.SkylineProgressive(func(idx int, p []float64) bool {
			seen++
			if !sameBits(p, want[idx]) {
				t.Errorf("%s: SkylineProgressive row %d = %v, want %v", stage, idx, p, want[idx])
			}
			return true
		})
		if err != nil || seen != m {
			t.Fatalf("%s: SkylineProgressive saw %d of %d points: %v", stage, seen, m, err)
		}
		if !save {
			return
		}
		var buf bytes.Buffer
		if err := ds.SaveDataset(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadDataset(&buf, prefs)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != len(want) {
			t.Fatalf("%s: reloaded %d rows, want %d", stage, back.Len(), len(want))
		}
		for i, w := range want {
			if p := back.Point(i); !sameBits(p, w) {
				t.Fatalf("%s: reloaded Point(%d) = %v, want %v", stage, i, p, w)
			}
		}
	}

	check("as built", true)
	// Points are fresh copies: writing one leaves the dataset as it was.
	ds.Point(1)[0] = 99
	check("after writing a returned point", true)

	ins := []float64{negZero, -8, negZero}
	row, err := ds.Insert(ins)
	if err != nil {
		t.Fatal(err)
	}
	if row != len(want) {
		t.Fatalf("Insert returned row %d, want %d", row, len(want))
	}
	want = append(want, ins)
	check("after an insert", true)

	if err := ds.Delete(2); err != nil {
		t.Fatal(err)
	}
	// A dataset with deleted rows cannot be saved (TestSaveRefusesDeletedRows).
	check("after a delete", false)
}

// TestSaveDatasetMatchesGenerator: on an all-Min dataset the flip is the
// identity, so SaveDataset writes exactly the bytes of the generator's own
// dataset.
func TestSaveDatasetMatchesGenerator(t *testing.T) {
	ds, err := Generate(Anticorrelated, 500, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var got, want bytes.Buffer
	if err := ds.SaveDataset(&got); err != nil {
		t.Fatal(err)
	}
	if err := data.Anticorrelated(500, 3, 4).Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SaveDataset wrote %d bytes that differ from data.Write's %d", got.Len(), want.Len())
	}
}

// TestSaveRefusesDeletedRows: neither file format records deletions, so
// after a delete both SaveDataset and SaveIndex fail with ErrInvalidOptions
// and write nothing. (Saved anyway, the rows would reopen live, and the
// index would reopen over a fresh dataset of the same size while naming a
// row it does not have.)
func TestSaveRefusesDeletedRows(t *testing.T) {
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Insert([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(0); err != nil {
		t.Fatal(err)
	}
	if ds.LiveLen() != 300 {
		t.Fatalf("LiveLen = %d, want 300", ds.LiveLen())
	}
	var buf bytes.Buffer
	if err := ds.SaveDataset(&buf); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SaveDataset after a delete: %v, want ErrInvalidOptions", err)
	}
	if err := ds.SaveIndex(&buf); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SaveIndex after a delete: %v, want ErrInvalidOptions", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused saves wrote %d bytes", buf.Len())
	}
}

// TestSaveAfterInsertsRoundTrip: after inserts only, a SaveDataset file and
// a SaveIndex snapshot reopen (LoadDataset + LoadIndex) into a dataset that
// answers bit-identically: the same skyline, and per algorithm the same
// selection, points, objective and simulated I/O.
func TestSaveAfterInsertsRoundTrip(t *testing.T) {
	prefs := []Pref{Min, Max, Min}
	gen, err := Generate(Independent, 400, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, gen.Len())
	for i := range rows {
		rows[i] = gen.Point(i)
	}
	ds, err := NewDataset("grown", rows, prefs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	// Two single inserts and a batch of two.
	if _, err := ds.Insert([]float64{0.001, 0.5, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert([]float64{0.9, 0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.InsertBatch([][]float64{{0.3, 0.7, 0.2}, {0.5, 0.002, 0.001}}); err != nil {
		t.Fatal(err)
	}
	var file, snap bytes.Buffer
	if err := ds.SaveDataset(&file); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveIndex(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(&file, prefs)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if err := back.LoadIndex(&snap); err != nil {
		t.Fatal(err)
	}
	wantSky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	gotSky, err := back.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSky) != len(wantSky) {
		t.Fatalf("reopened skyline %v, want %v", gotSky, wantSky)
	}
	for i := range wantSky {
		if gotSky[i] != wantSky[i] {
			t.Fatalf("reopened skyline %v, want %v", gotSky, wantSky)
		}
	}
	for _, algo := range []Algorithm{MinHash, LSH, Greedy} {
		opts := Options{K: 4, Seed: 3, Algorithm: algo, NoCache: true}
		want, err := ds.Diversify(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Diversify(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.ObjectiveValue != want.ObjectiveValue || got.PageFaults != want.PageFaults || len(got.Indexes) != len(want.Indexes) {
			t.Fatalf("%v: reopened answer %+v, want %+v", algo, got, want)
		}
		for j := range want.Indexes {
			if got.Indexes[j] != want.Indexes[j] || !sameBits(got.Points[j], want.Points[j]) {
				t.Fatalf("%v: reopened selection %v %v, want %v %v", algo, got.Indexes, got.Points, want.Indexes, want.Points)
			}
		}
	}
}

// TestSaveDatasetDuringInserts: SaveDataset holds the read side of the
// query/mutation lock, so saves running alongside inserts are race-free
// (run with -race) and each saved file is the dataset as of one moment.
func TestSaveDatasetDuringInserts(t *testing.T) {
	ds, err := Generate(Independent, 300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const writes = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			x := float64(i) / writes
			if _, err := ds.Insert([]float64{x, 1 - x, 0.5}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			var buf bytes.Buffer
			if err := ds.SaveDataset(&buf); err != nil {
				t.Error(err)
				return
			}
			back, err := LoadDataset(&buf, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if n := back.Len(); n < 300 || n > 300+writes {
				t.Errorf("save %d holds %d rows, want 300..%d", i, n, 300+writes)
			}
		}
	}()
	wg.Wait()
}
