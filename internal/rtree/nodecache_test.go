package rtree

import (
	"sync"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/pager"
	"skydiver/internal/retry"
)

// nodecache_test.go pins the contract of the shared decoded-node cache: it
// may only save physical decode work, never change a simulated counter. Every
// observable accounting quantity — per-query reads/hits/faults/retries, the
// tree-wide aggregate, fault-injection statistics — must be bit-identical
// with the cache on and off, under both the Tree (default pool) and Session
// (per-query pool) readers, with and without injected faults.

// cacheWorkload drives a fixed read mix through a reader and returns a result
// checksum plus the reader's counters.
func cacheWorkload(t *testing.T, ds *data.Dataset, r Reader) (int, pager.Stats) {
	t.Helper()
	total := 0
	for i := 0; i < 30; i++ {
		c, err := r.DominanceCount(ds.Point(i * 13 % ds.Len()))
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	for i := 0; i < 8; i++ {
		c, err := r.CommonDominanceCount(ds.Point(i), ds.Point(ds.Len()-1-i))
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	return total, r.Stats()
}

// buildCacheTree builds one tree per configuration over the same dataset.
func buildCacheTree(t *testing.T, ds *data.Dataset, decodeCache bool) *Tree {
	t.Helper()
	tr, err := BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetDecodeCache(decodeCache)
	tr.Reopen(pager.DefaultCacheFraction)
	return tr
}

// TestDecodeCacheAccountingGolden: identical simulated counters with the
// decode cache enabled and disabled, for both reader kinds.
func TestDecodeCacheAccountingGolden(t *testing.T) {
	ds := data.Anticorrelated(4000, 3, 9)
	withCache := buildCacheTree(t, ds, true)
	without := buildCacheTree(t, ds, false)

	t.Run("Session", func(t *testing.T) {
		a := withCache.NewSession(pager.DefaultCacheFraction)
		b := without.NewSession(pager.DefaultCacheFraction)
		totalA, statsA := cacheWorkload(t, ds, a)
		totalB, statsB := cacheWorkload(t, ds, b)
		if totalA != totalB {
			t.Errorf("query answers differ: %d vs %d", totalA, totalB)
		}
		if statsA != statsB {
			t.Errorf("session stats with cache %+v != without %+v", statsA, statsB)
		}
		if statsA.Faults == 0 || statsA.Hits == 0 {
			t.Fatalf("workload too small to exercise the pool: %+v", statsA)
		}
	})
	t.Run("Tree", func(t *testing.T) {
		totalA, statsA := cacheWorkload(t, ds, withCache)
		totalB, statsB := cacheWorkload(t, ds, without)
		if totalA != totalB {
			t.Errorf("query answers differ: %d vs %d", totalA, totalB)
		}
		if statsA != statsB {
			t.Errorf("tree stats with cache %+v != without %+v", statsA, statsB)
		}
	})
	t.Run("Aggregate", func(t *testing.T) {
		if a, b := withCache.AggregateStats(), without.AggregateStats(); a != b {
			t.Errorf("aggregate stats with cache %+v != without %+v", a, b)
		}
	})
}

// TestDecodeCacheFaultAccountingGolden: with a deterministic fault injector
// installed, injected-fault counts and retry totals must also match exactly —
// the decode cache sits strictly behind the simulated physical read, so the
// fault lottery sees the identical access sequence.
func TestDecodeCacheFaultAccountingGolden(t *testing.T) {
	ds := data.Independent(3000, 3, 21)
	run := func(decodeCache bool) (pager.Stats, int64) {
		tr := buildCacheTree(t, ds, decodeCache)
		fi, err := pager.NewFaultInjector(pager.FaultPolicy{Rate: 0.2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tr.Store().SetFaultInjector(fi)
		sess := tr.NewSession(pager.DefaultCacheFraction)
		sess.SetRetryPolicy(retry.Policy{MaxRetries: 8})
		_, stats := cacheWorkload(t, ds, sess)
		return stats, fi.Stats().Injected()
	}
	statsA, injectedA := run(true)
	statsB, injectedB := run(false)
	if statsA != statsB {
		t.Errorf("fault-path stats with cache %+v != without %+v", statsA, statsB)
	}
	if injectedA != injectedB {
		t.Errorf("injected faults with cache %d != without %d", injectedA, injectedB)
	}
	if statsA.Retries == 0 {
		t.Fatalf("fault policy injected no retries; stats %+v", statsA)
	}
}

// TestDecodeCacheDecodesOncePerPage: across many cold sessions, each page is
// physically decoded at most once; every further pool miss is a decode-cache
// hit served by pointer.
func TestDecodeCacheDecodesOncePerPage(t *testing.T) {
	ds := data.Independent(4000, 3, 3)
	tr := buildCacheTree(t, ds, true)
	base := tr.DecodeCacheStats()

	const sessions = 6
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := tr.NewSession(pager.DefaultCacheFraction)
			if _, err := sess.DominanceCount(ds.Point(1)); err != nil {
				t.Error(err)
			}
			if _, err := sess.CommonDominanceCount(ds.Point(2), ds.Point(3)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := tr.DecodeCacheStats()
	decoded := st.Decodes - base.Decodes
	if decoded > int64(tr.NumPages()) {
		t.Errorf("decoded %d pages, tree has only %d — pages decoded more than once", decoded, tr.NumPages())
	}
	if st.Hits == base.Hits {
		t.Error("concurrent cold sessions produced no decode-cache hits")
	}
	// A second wave of cold sessions must decode nothing new.
	before := tr.DecodeCacheStats().Decodes
	sess := tr.NewSession(pager.DefaultCacheFraction)
	if _, err := sess.DominanceCount(ds.Point(1)); err != nil {
		t.Fatal(err)
	}
	if after := tr.DecodeCacheStats().Decodes; after != before {
		t.Errorf("re-running a seen query decoded %d new pages", after-before)
	}
}

// TestDecodeCacheDisabledReportsZero: the stats accessor is well-defined with
// the cache off.
func TestDecodeCacheDisabledReportsZero(t *testing.T) {
	ds := data.Independent(500, 2, 1)
	tr := buildCacheTree(t, ds, false)
	if _, err := tr.DominanceCount(ds.Point(0)); err != nil {
		t.Fatal(err)
	}
	if st := tr.DecodeCacheStats(); st != (DecodeCacheStats{}) {
		t.Errorf("disabled cache reports %+v", st)
	}
	// Re-enabling starts a fresh cache that serves subsequent misses.
	tr.SetDecodeCache(true)
	tr.Reopen(pager.DefaultCacheFraction)
	if _, err := tr.DominanceCount(ds.Point(0)); err != nil {
		t.Fatal(err)
	}
	if st := tr.DecodeCacheStats(); st.Decodes == 0 {
		t.Error("re-enabled cache performed no decodes")
	}
}
