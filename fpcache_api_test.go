package skydiver

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// fpcache_api_test.go is the race suite for the fingerprint cache at the
// public API: concurrent identical queries must trigger exactly one SigGen
// build, mixed-parameter waves must stay correct and keyed apart, and
// NoCache must bypass the cache entirely. Expected to run under -race
// (make race / make verify).

// TestConcurrentIdenticalQueriesBuildOnce fires a wave of identical queries
// at a fresh dataset: singleflight must collapse them into one fingerprint
// build, and every answer must match the sequential result.
func TestConcurrentIdenticalQueriesBuildOnce(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the index and skyline only (not the fingerprint cache), so the
	// concurrent wave races on the build itself.
	if _, err := ds.Skyline(); err != nil {
		t.Fatal(err)
	}
	if s := ds.FingerprintCacheStats(); s.Builds != 0 {
		t.Fatalf("skyline warm-up ran %d fingerprint builds", s.Builds)
	}

	opts := Options{K: 5, Seed: 3}
	const queries = 16
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			results[q], errs[q] = ds.Diversify(opts)
		}(q)
	}
	wg.Wait()

	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatalf("query %d: %v", q, errs[q])
		}
		if fmt.Sprint(results[q].Indexes) != fmt.Sprint(results[0].Indexes) {
			t.Fatalf("query %d selected %v, query 0 selected %v", q, results[q].Indexes, results[0].Indexes)
		}
	}
	s := ds.FingerprintCacheStats()
	if s.Builds != 1 {
		t.Errorf("%d concurrent identical queries ran %d builds, want exactly 1", queries, s.Builds)
	}
	if s.Hits != queries-1 {
		t.Errorf("hits = %d, want %d", s.Hits, queries-1)
	}
	cachedCount := 0
	for _, r := range results {
		if r.FingerprintCached {
			cachedCount++
			if r.PageFaults != 0 {
				t.Errorf("cached query charged %d page faults", r.PageFaults)
			}
		}
	}
	if cachedCount != queries-1 {
		t.Errorf("%d queries reported FingerprintCached, want %d", cachedCount, queries-1)
	}
}

// TestConcurrentMixedParameterWave races queries with differing cache keys
// (signature size, seed, mode) plus repeats: each distinct key builds once,
// every repeat is a hit, and all answers match their sequential twins.
func TestConcurrentMixedParameterWave(t *testing.T) {
	ds, err := Generate(Anticorrelated, 2000, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{K: 4, Seed: 1},
		{K: 4, Seed: 2},
		{K: 4, Seed: 1, SignatureSize: 64},
		{K: 4, Seed: 1, UseIndex: true},
		{K: 4, Seed: 1, Algorithm: LSH}, // same key as the first variant
	}
	// Sequential baselines on an identical twin dataset (fresh cache).
	twin, err := Generate(Anticorrelated, 2000, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(variants))
	for i, o := range variants {
		if want[i], err = twin.Diversify(o); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 4
	results := make([]*Result, rounds*len(variants))
	errs := make([]error, rounds*len(variants))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i := range variants {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				results[slot], errs[slot] = ds.Diversify(variants[i])
			}(r*len(variants)+i, i)
		}
	}
	wg.Wait()

	for slot, res := range results {
		i := slot % len(variants)
		if errs[slot] != nil {
			t.Fatalf("slot %d (variant %d): %v", slot, i, errs[slot])
		}
		if fmt.Sprint(res.Indexes) != fmt.Sprint(want[i].Indexes) {
			t.Fatalf("variant %d selected %v, sequential twin %v", i, res.Indexes, want[i].Indexes)
		}
	}
	// 4 distinct keys: (IF,100,1), (IF,100,2), (IF,64,1), (IB,100,1) — the
	// LSH variant shares (IF,100,1).
	s := ds.FingerprintCacheStats()
	if s.Builds != 4 {
		t.Errorf("builds = %d, want 4 distinct fingerprints", s.Builds)
	}
	if s.Hits+s.Misses != int64(rounds*len(variants)) {
		t.Errorf("hits+misses = %d, want %d queries", s.Hits+s.Misses, rounds*len(variants))
	}
	if s.Entries != 4 {
		t.Errorf("entries = %d, want 4", s.Entries)
	}
}

// TestNoCacheBypassesCache: NoCache queries never read nor populate the
// cache, and always pay Phase-1 I/O.
func TestNoCacheBypassesCache(t *testing.T) {
	ds, err := Generate(Independent, 2000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Seed: 5, NoCache: true}
	first, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.FingerprintCached || second.FingerprintCached {
		t.Error("NoCache query reported FingerprintCached")
	}
	if second.PageFaults != first.PageFaults {
		t.Errorf("NoCache repeat paid %d faults, first paid %d — should be identical cold runs",
			second.PageFaults, first.PageFaults)
	}
	if s := ds.FingerprintCacheStats(); s.Builds != 0 || s.Entries != 0 {
		t.Errorf("cache stats = %+v after NoCache-only traffic, want empty", s)
	}

	// Turning caching back on builds once and then serves hits.
	opts.NoCache = false
	if _, err := ds.Diversify(opts); err != nil {
		t.Fatal(err)
	}
	third, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FingerprintCached {
		t.Error("cached repeat did not report FingerprintCached")
	}
	if s := ds.FingerprintCacheStats(); s.Builds != 1 {
		t.Errorf("builds = %d, want 1", s.Builds)
	}
}

// TestLSHBucketsAlternateOnOneKey alternates two LSHBuckets values on one
// resident fingerprint, with an insert between rounds. The entry memoizes
// one banding at a time, so a read either reuses the memoized vectors or
// rebuilds and replaces them; every answer must equal an uncached
// recompute, MemoryBytes included.
func TestLSHBucketsAlternateOnOneKey(t *testing.T) {
	ds, err := Generate(Anticorrelated, 3000, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for round := 0; round < 3; round++ {
		for _, b := range []int{20, 7} {
			opts := Options{K: 5, Seed: 2, Algorithm: LSH, LSHBuckets: b}
			uncached := opts
			uncached.NoCache = true
			fresh, err := ds.Diversify(uncached)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				cached, err := ds.Diversify(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(cached.Indexes, fresh.Indexes) || cached.MemoryBytes != fresh.MemoryBytes {
					t.Fatalf("round %d B=%d read %d: cached %v (%d bytes), recompute %v (%d bytes)",
						round, b, rep, cached.Indexes, cached.MemoryBytes, fresh.Indexes, fresh.MemoryBytes)
				}
			}
		}
		if _, err := ds.Insert([]float64{0.1 * float64(round), 0.3, 0.2}); err != nil {
			t.Fatal(err)
		}
	}
}
