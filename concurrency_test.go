package skydiver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// concurrency_test.go is the race suite for concurrent query serving: one
// shared Dataset, many goroutines mixing all four algorithms plus the
// metadata calls, every result compared against its sequential twin. The
// whole file is expected to run under -race (make race / make verify).

// mixedConfigs returns one Options per algorithm variant, the mix the
// concurrent wave cycles through.
func mixedConfigs() []Options {
	return []Options{
		{K: 4, Seed: 7},                    // MH, index-free
		{K: 4, Seed: 7, UseIndex: true},    // MH, index-based
		{K: 4, Seed: 7, Algorithm: LSH},    // LSH
		{K: 4, Seed: 7, Algorithm: Greedy}, // SG
		{K: 3, Seed: 7, Algorithm: Exact},  // BF (small k: C(m,k) enumeration)
	}
}

// TestConcurrentDiversifyMatchesSequential serves a wave of concurrent
// mixed-algorithm queries from one shared Dataset and requires every answer
// — selection, objective, and per-query fault accounting — to be identical
// to a sequential run of the same query. Per-query I/O sessions make the
// fault counts comparable: every non-first query starts from its own cold
// 20% cache, whether or not other queries are in flight.
func TestConcurrentDiversifyMatchesSequential(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	configs := mixedConfigs()
	// First round builds the index and skyline; second round records the
	// steady-state baseline every concurrent query must reproduce.
	for _, o := range configs {
		if _, err := ds.Diversify(o); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]*Result, len(configs))
	for i, o := range configs {
		res, err := ds.Diversify(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	wantSky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}

	const queries = 20
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			results[q], errs[q] = ds.DiversifyContext(context.Background(), configs[q%len(configs)])
		}(q)
	}
	// Metadata calls race against the query wave: skyline reads and fault
	// accounting must stay consistent while queries are in flight.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sky, err := ds.SkylineContext(context.Background())
				if err != nil {
					t.Errorf("concurrent SkylineContext: %v", err)
					return
				}
				if len(sky) != len(wantSky) {
					t.Errorf("concurrent skyline size %d, want %d", len(sky), len(wantSky))
					return
				}
				if inj, retr := ds.FaultStats(); inj != 0 || retr != 0 {
					t.Errorf("FaultStats = %d, %d without an injector", inj, retr)
					return
				}
			}
		}()
	}
	wg.Wait()

	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatalf("query %d: %v", q, errs[q])
		}
		w := want[q%len(configs)]
		got := results[q]
		if fmt.Sprint(got.Indexes) != fmt.Sprint(w.Indexes) {
			t.Errorf("query %d: indexes %v, want %v", q, got.Indexes, w.Indexes)
		}
		if got.ObjectiveValue != w.ObjectiveValue {
			t.Errorf("query %d: objective %v, want %v", q, got.ObjectiveValue, w.ObjectiveValue)
		}
		if got.PageFaults != w.PageFaults {
			t.Errorf("query %d: page faults %d, want %d", q, got.PageFaults, w.PageFaults)
		}
		if got.Partial {
			t.Errorf("query %d: unexpectedly partial", q)
		}
	}
}

// TestConcurrentFirstQuery hammers a fresh Dataset with concurrent queries
// so the lazy index build and the one-shot BBS run are raced from the start:
// exactly one goroutine must build, everyone must agree.
func TestConcurrentFirstQuery(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	configs := mixedConfigs()
	const queries = 10
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			results[q], errs[q] = ds.DiversifyContext(context.Background(), configs[q%len(configs)])
		}(q)
	}
	wg.Wait()
	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatalf("query %d: %v", q, errs[q])
		}
	}
	// Queries running the same config agree with each other.
	for q := len(configs); q < queries; q++ {
		w := results[q%len(configs)]
		if fmt.Sprint(results[q].Indexes) != fmt.Sprint(w.Indexes) {
			t.Errorf("query %d: indexes %v, want %v", q, results[q].Indexes, w.Indexes)
		}
	}
}

// TestSkylineContextReturnsCopy pins the fix for the aliasing bug where
// SkylineContext handed out the cached internal slice: a caller scribbling
// over its result must not corrupt the skyline later queries run on.
func TestSkylineContextReturnsCopy(t *testing.T) {
	ds, err := NewDataset("hotels", hotelRows(), []Pref{Min, Max})
	if err != nil {
		t.Fatal(err)
	}
	sky, err := ds.SkylineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]int(nil), sky...)
	for i := range sky {
		sky[i] = -1
	}
	again, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again) != fmt.Sprint(saved) {
		t.Fatalf("cached skyline corrupted by caller mutation: %v, want %v", again, saved)
	}
	// The diversification path still sees valid skyline indexes.
	if _, err := ds.Diversify(Options{K: 2}); err != nil {
		t.Fatalf("Diversify after mutating a returned skyline: %v", err)
	}
}

// TestConcurrentLSHReadsAndWrites races LSH readers of one resident
// fingerprint against a writer that alternates inserts and deletes. The
// readers start together, so the first ones race the memo's first store of
// the bit-vectors; every write then carries the memoized vectors to the new
// epoch. Afterwards the cached LSH answer must equal an uncached recompute,
// MemoryBytes included.
func TestConcurrentLSHReadsAndWrites(t *testing.T) {
	const n, readers, reads, writes = 3000, 4, 12, 16
	ds, err := Generate(Anticorrelated, n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	opts := Options{K: 5, Seed: 4, Algorithm: LSH}
	// A MinHash query builds the shared fingerprint but no vectors.
	if _, err := ds.Diversify(Options{K: 5, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				if _, err := ds.Diversify(opts); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		r := rand.New(rand.NewSource(5))
		deletes := r.Perm(n)
		for i := 0; i < writes; i++ {
			var err error
			if i%2 == 0 {
				_, err = ds.Insert([]float64{r.Float64(), r.Float64(), r.Float64()})
			} else {
				err = ds.Delete(deletes[i])
			}
			if err != nil {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cached, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoCache = true
	fresh, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.FingerprintCached {
		t.Fatal("the resident fingerprint did not survive the writes")
	}
	if !slices.Equal(cached.Indexes, fresh.Indexes) || cached.MemoryBytes != fresh.MemoryBytes {
		t.Fatalf("cached answer %v (%d bytes), recompute %v (%d bytes)",
			cached.Indexes, cached.MemoryBytes, fresh.Indexes, fresh.MemoryBytes)
	}
}
