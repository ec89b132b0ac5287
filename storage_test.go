package skydiver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"sort"
	"testing"
)

// TestFileStorageMatchesSimulated pins the "measurement twin" contract: the
// same query against a file-backed index returns the same points with the
// same simulated I/O accounting as against the default simulated store.
func TestFileStorageMatchesSimulated(t *testing.T) {
	mk := func(kind StorageKind) *Result {
		ds, err := Generate(Independent, 5000, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if err := ds.SetStorage(kind); err != nil {
			t.Fatal(err)
		}
		res, err := ds.Diversify(Options{K: 5, SignatureSize: 64, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sim, file := mk(StorageSimulated), mk(StorageFile)
	if len(sim.Indexes) != len(file.Indexes) {
		t.Fatalf("selected %d vs %d points", len(sim.Indexes), len(file.Indexes))
	}
	for i := range sim.Indexes {
		if sim.Indexes[i] != file.Indexes[i] {
			t.Fatalf("index %d: %d vs %d", i, sim.Indexes[i], file.Indexes[i])
		}
	}
	if sim.PageFaults != file.PageFaults || sim.IOTime != file.IOTime {
		t.Fatalf("I/O accounting diverged: %d faults/%v vs %d/%v",
			sim.PageFaults, sim.IOTime, file.PageFaults, file.IOTime)
	}
	if sim.ObjectiveValue != file.ObjectiveValue {
		t.Fatalf("objective %v vs %v", sim.ObjectiveValue, file.ObjectiveValue)
	}
}

// TestOptionsStorageBuildsAndConflicts: SetStorage before the first query
// selects the backend that query builds the index on, and a conflicting
// kind afterwards is rejected with ErrIndexBuilt.
func TestOptionsStorageBuildsAndConflicts(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.SetStorage(StorageFile); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Diversify(Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Storage(); got != StorageFile {
		t.Fatalf("storage = %v, want file", got)
	}
	if err := ds.SetStorage(StorageSimulated); !errors.Is(err, ErrIndexBuilt) {
		t.Fatalf("err = %v, want ErrIndexBuilt", err)
	}
	if err := ds.SetStorage(StorageFile); err != nil {
		t.Fatalf("matching SetStorage should be a no-op, got %v", err)
	}
	if err := ds.SetStorage(StorageKind(99)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
}

// TestSaveLoadIndexWarmStart pins the warm-start contract: a dataset opened
// from a snapshot answers its first query without bulk load and without a
// decode storm (zero decodes — every node comes from the warm set), with
// results identical to a freshly built index.
func TestSaveLoadIndexWarmStart(t *testing.T) {
	for _, kind := range []StorageKind{StorageSimulated, StorageFile} {
		t.Run(kind.String(), func(t *testing.T) {
			ds, err := Generate(Anticorrelated, 4000, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			wantSky, err := ds.Skyline()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ds.Diversify(Options{K: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := ds.SaveIndex(&snap); err != nil {
				t.Fatal(err)
			}

			ds2, err := Generate(Anticorrelated, 4000, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			if err := ds2.SetStorage(kind); err != nil {
				t.Fatal(err)
			}
			if err := ds2.LoadIndex(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			gotSky, err := ds2.Skyline()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotSky) != len(wantSky) {
				t.Fatalf("skyline %d vs %d", len(gotSky), len(wantSky))
			}
			for i := range wantSky {
				if gotSky[i] != wantSky[i] {
					t.Fatalf("sky[%d]: %d vs %d", i, gotSky[i], wantSky[i])
				}
			}
			dc := ds2.DecodeCacheStats()
			if dc.Decodes != 0 {
				t.Fatalf("warm start decoded %d nodes, want 0", dc.Decodes)
			}
			if dc.Hits == 0 {
				t.Fatal("warm start served no nodes from the warm set")
			}
			got, err := ds2.Diversify(Options{K: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Indexes {
				if got.Indexes[i] != want.Indexes[i] {
					t.Fatalf("index %d: %d vs %d", i, got.Indexes[i], want.Indexes[i])
				}
			}
		})
	}
}

// TestLoadIndexRejections: loading over a built index, after mutations, or
// with a mismatched snapshot all fail cleanly.
func TestLoadIndexRejections(t *testing.T) {
	ds, err := Generate(Independent, 1000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var snap bytes.Buffer
	if err := ds.SaveIndex(&snap); err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadIndex(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrIndexBuilt) {
		t.Fatalf("err = %v, want ErrIndexBuilt", err)
	}

	other, err := Generate(Independent, 999, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.LoadIndex(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("loaded a snapshot with mismatched cardinality")
	}

	mut, err := Generate(Independent, 1000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer mut.Close()
	if _, err := mut.Insert([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := mut.LoadIndex(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("loaded a snapshot after mutations")
	}

	fresh, err := Generate(Independent, 1000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.LoadIndex(bytes.NewReader([]byte("garbage snapshot"))); err == nil {
		t.Fatal("loaded garbage")
	}
	// The failed load must not poison the dataset: a query still works.
	if _, err := fresh.Skyline(); err != nil {
		t.Fatal(err)
	}
}

// TestDiversifyStream pins the streaming pipeline against the materialized
// one: same rows, same parameters, same selected set and objective value.
// Preferences include a Max dimension so the canonicalizing source adapter
// and the de-canonicalized output points are both exercised.
func TestDiversifyStream(t *testing.T) {
	const (
		n    = 6000
		dims = 3
		seed = 17
	)
	ds, err := Generate(Anticorrelated, n, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	opts := Options{K: 5, SignatureSize: 64, Seed: 9, NoCache: true}
	want, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateSource(Anticorrelated, n, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiversifyStream(src, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.ObjectiveValue != want.ObjectiveValue {
		t.Fatalf("objective %v vs %v", got.ObjectiveValue, want.ObjectiveValue)
	}
	a := append([]int(nil), got.Indexes...)
	b := append([]int(nil), want.Indexes...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selected sets differ: %v vs %v", a, b)
		}
	}
	for i, idx := range got.Indexes {
		p, q := got.Points[i], ds.Point(idx)
		for j := range q {
			if p[j] != q[j] {
				t.Fatalf("point %d dim %d: %v != %v", idx, j, p[j], q[j])
			}
		}
	}
	if got.PageFaults == 0 {
		t.Fatal("streaming run charged no I/O")
	}

	// Max preferences: the adapter canonicalizes on the way in, the result
	// points come back in the caller's orientation.
	prefs := []Pref{Max, Min, Max}
	rows := make([][]float64, 800)
	for i := range rows {
		p := ds.Point(i)
		rows[i] = append([]float64(nil), p...)
	}
	mds, err := NewDataset("mix", rows, prefs)
	if err != nil {
		t.Fatal(err)
	}
	defer mds.Close()
	wantP, err := mds.Diversify(Options{K: 3, Seed: 2, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := DiversifyStream(&sliceSource{name: "mix", rows: rows, dims: dims}, prefs, Options{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gotP.ObjectiveValue != wantP.ObjectiveValue {
		t.Fatalf("objective %v vs %v with Max prefs", gotP.ObjectiveValue, wantP.ObjectiveValue)
	}
	for i, idx := range gotP.Indexes {
		p, q := gotP.Points[i], rows[idx]
		for j := range q {
			if p[j] != q[j] {
				t.Fatalf("orientation broken: point %d dim %d: %v != %v", idx, j, p[j], q[j])
			}
		}
	}
}

// sliceSource streams an in-memory [][]float64 — a minimal RowSource used to
// feed DiversifyStream arbitrary rows in tests.
type sliceSource struct {
	name string
	rows [][]float64
	dims int
	i    int
}

func (s *sliceSource) Name() string { return s.name }
func (s *sliceSource) Dims() int    { return s.dims }
func (s *sliceSource) Len() int     { return len(s.rows) }

func (s *sliceSource) Next() ([]float64, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.i]
	s.i++
	return r, nil
}

func (s *sliceSource) Reset() error {
	s.i = 0
	return nil
}

// TestDiversifyStreamValidation covers the rejected option combinations,
// and Shards, which the stream accepts and ignores.
func TestDiversifyStreamValidation(t *testing.T) {
	src, err := GenerateSource(Independent, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{K: 3, Algorithm: Greedy},
		{K: 3, Algorithm: Exact},
		{K: 3, UseIndex: true},
		{K: 3, Remote: &RemoteOptions{}},
		{K: 0},
		{K: 100000},
	}
	for i, opts := range bad {
		if _, err := DiversifyStreamContext(context.Background(), src, nil, opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("case %d: err = %v, want ErrInvalidOptions", i, err)
		}
	}
	if _, err := DiversifyStreamContext(context.Background(), nil, nil, Options{K: 1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("nil source: err = %v, want ErrInvalidOptions", err)
	}
	want, err := DiversifyStream(src, nil, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiversifyStream(src, nil, Options{K: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Indexes, want.Indexes) || got.IOTime != want.IOTime || got.PageFaults != want.PageFaults {
		t.Errorf("Shards: 2 = %v (io %v, %d faults), want %v (io %v, %d faults)",
			got.Indexes, got.IOTime, got.PageFaults, want.Indexes, want.IOTime, want.PageFaults)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiversifyStreamContext(canceled, src, nil, Options{K: 3}); err == nil {
		t.Error("canceled context did not abort the stream")
	}
}
