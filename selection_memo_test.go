package skydiver

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"skydiver/internal/budget"
)

// selection_memo_test.go pins the pick-order memo of cached MinHash and LSH
// reads: a read of k points after a complete read of at least k points
// under the same key and distance, with no write in between, takes the
// stored order's first k picks instead of selecting, and its answer is the
// one a NoCache recompute gives, bit for bit.

// TestSelectionMemoModel runs random single and batched inserts and deletes
// on ANT and IND data, interleaved with cached MinHash and LSH reads over
// two hash seeds and, for LSH, two bandings. Every cached answer must equal
// its NoCache recompute, and SelectionCached must hold exactly when the
// model says a long-enough order was stored under the read's key since the
// last write: a complete selection stores its order, a write empties every
// order, and an LSH read under the other banding rebuilds the key's
// bit-vectors with an empty order. The k of a read falls below, at or above
// the stored length, k = 1 included.
func TestSelectionMemoModel(t *testing.T) {
	for _, dist := range []Distribution{Anticorrelated, Independent} {
		t.Run(dist.String(), func(t *testing.T) {
			ds, err := Generate(dist, 3000, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(dist) + 11))
			seeds := []int64{1, 2}
			buckets := []int{20, 10}
			// The model: per seed, the length of the stored MinHash order,
			// the banding whose vectors the key holds, and the length of
			// the LSH order stored with them.
			mhLen := map[int64]int{}
			lshBanding := map[int64]int{}
			lshLen := map[int64]int{}
			hits := int64(0)
			live := make([]int, ds.Len())
			for i := range live {
				live[i] = i
			}
			takeLive := func() int {
				i := r.Intn(len(live))
				row := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return row
			}
			point := func() []float64 { return []float64{r.Float64(), r.Float64(), r.Float64()} }
			for step := 0; step < 200; step++ {
				if r.Intn(5) == 0 {
					switch r.Intn(4) {
					case 0:
						row, err := ds.Insert(point())
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, row)
					case 1:
						if err := ds.Delete(takeLive()); err != nil {
							t.Fatal(err)
						}
					case 2:
						rows, err := ds.InsertBatch([][]float64{point(), point(), point()})
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, rows...)
					default:
						if err := ds.DeleteBatch([]int{takeLive(), takeLive()}); err != nil {
							t.Fatal(err)
						}
					}
					clear(mhLen)
					clear(lshLen)
					continue
				}
				m, err := ds.SkylineSize()
				if err != nil {
					t.Fatal(err)
				}
				seed := seeds[r.Intn(len(seeds))]
				opts := Options{SignatureSize: 64, Seed: seed}
				stored := mhLen[seed]
				if r.Intn(3) == 0 {
					opts.Algorithm = LSH
					opts.LSHBuckets = buckets[r.Intn(len(buckets))]
					if lshBanding[seed] != opts.LSHBuckets {
						lshBanding[seed], lshLen[seed] = opts.LSHBuckets, 0
					}
					stored = lshLen[seed]
				}
				switch r.Intn(4) {
				case 0:
					opts.K = 1
				case 1:
					opts.K = stored - 1
				case 2:
					opts.K = stored
				default:
					opts.K = stored + 1 + r.Intn(4)
				}
				opts.K = max(1, min(opts.K, m, 16))

				cached, err := ds.Diversify(opts)
				if err != nil {
					t.Fatal(err)
				}
				fresh := opts
				fresh.NoCache = true
				want, err := ds.Diversify(fresh)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("step %d %v seed %d B %d k %d (stored %d)", step, opts.Algorithm, seed, opts.LSHBuckets, opts.K, stored)
				if !sameSelection(cached, want) {
					t.Fatalf("%s: cached %v (%v), recompute %v (%v)", label,
						cached.Indexes, cached.ObjectiveValue, want.Indexes, want.ObjectiveValue)
				}
				if !cached.FingerprintCached && stored > 0 {
					t.Fatalf("%s: the key's fingerprint was not resident", label)
				}
				if hit := stored >= opts.K; cached.SelectionCached != hit {
					t.Fatalf("%s: SelectionCached = %v, want %v", label, cached.SelectionCached, hit)
				}
				if want.SelectionCached {
					t.Fatalf("%s: a NoCache read reported SelectionCached", label)
				}
				if cached.SelectionCached {
					hits++
				} else if opts.Algorithm == LSH {
					lshLen[seed] = opts.K
				} else {
					mhLen[seed] = opts.K
				}
			}
			if hits == 0 {
				t.Fatal("no read was served from a stored order")
			}
			t.Logf("%d memo hits, epoch %d", hits, ds.Epoch())
			if got := ds.FingerprintCacheStats().SelectionHits; got != hits {
				t.Errorf("SelectionHits = %d, want %d", got, hits)
			}
		})
	}
}

// TestSelectionMemoServesBudgetedRead guards the memo itself: once a key
// has been read at k = 8, the same read under an estimation budget of
// m + 2 completes, served from the stored order. A k = 8 selection on this
// dataset exceeds that budget (TestDegradeBudgetPartialPrefix), so a read
// that selected again would come back partial. The memo hit is charged
// only the objective's k(k-1)/2 estimates.
func TestSelectionMemoServesBudgetedRead(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{MinHash, LSH} {
		opts := Options{K: 8, SignatureSize: 64, Seed: 1, Algorithm: algo}
		warm, err := ds.Diversify(opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.SelectionCached {
			t.Fatalf("%v: the first read reported SelectionCached", algo)
		}
		limit := Budget{MaxEstimations: int64(len(sky)) + 2}
		budgeted := opts
		budgeted.Budget = limit
		res, err := ds.DiversifyContext(context.Background(), budgeted)
		if err != nil {
			t.Fatalf("%v: budgeted repeat failed: %v", algo, err)
		}
		if res.Partial || !res.SelectionCached || !sameSelection(res, warm) {
			t.Fatalf("%v: budgeted repeat partial=%v cached=%v %v, want the complete memo answer %v",
				algo, res.Partial, res.SelectionCached, res.Indexes, warm.Indexes)
		}
		tracker := budget.NewTracker(limit)
		ctx, cancel := budget.WithContext(context.Background(), tracker)
		res, err = ds.DiversifyContext(ctx, opts)
		cancel()
		if err != nil || !res.SelectionCached {
			t.Fatalf("%v: tracked repeat: err %v, cached %v", algo, err, res != nil && res.SelectionCached)
		}
		if got, want := tracker.Estimations(), int64(opts.K*(opts.K-1)/2); got != want {
			t.Errorf("%v: the memo hit charged %d estimates, want the objective's %d", algo, got, want)
		}
	}
}

// TestConcurrentSelectionMemo races readers of one key, at k = 3, 10 and 20
// under MinHash and LSH, against a writer. Each read must return the answer
// a NoCache read gives at some epoch it may have run at, computed on a
// replica that replays the writes in order. A reader misses at most once
// per epoch (and once more where two first LSH reads race to build the
// bit-vectors), so most reads are memo hits.
func TestConcurrentSelectionMemo(t *testing.T) {
	const writes, readsPerReader = 12, 40
	gen := func() *Dataset {
		ds, err := Generate(Anticorrelated, 3000, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ds, replica := gen(), gen()
	r := rand.New(rand.NewSource(4))
	rows := r.Perm(3000) // distinct rows to delete
	var ops []func(*Dataset) error
	for i := 0; i < writes; i++ {
		if i%2 == 0 {
			p := []float64{r.Float64(), r.Float64(), r.Float64()}
			ops = append(ops, func(d *Dataset) error { _, err := d.Insert(p); return err })
		} else {
			row := rows[i]
			ops = append(ops, func(d *Dataset) error { return d.Delete(row) })
		}
	}
	type reader struct {
		algo Algorithm
		k    int
	}
	var readers []reader
	for _, algo := range []Algorithm{MinHash, LSH} {
		for _, k := range []int{3, 10, 20} {
			readers = append(readers, reader{algo, k})
		}
	}
	opts := func(rd reader) Options { return Options{K: rd.k, SignatureSize: 64, Seed: 3, Algorithm: rd.algo} }
	// want[e][i] is reader i's NoCache answer at epoch e.
	want := make([][]*Result, writes+1)
	for e := 0; e <= writes; e++ {
		for _, rd := range readers {
			o := opts(rd)
			o.NoCache = true
			res, err := replica.Diversify(o)
			if err != nil {
				t.Fatal(err)
			}
			want[e] = append(want[e], res)
		}
		if e < writes {
			if err := ops[e](replica); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := ds.Skyline(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for i, rd := range readers {
		wg.Add(1)
		go func(i int, rd reader) {
			defer wg.Done()
			for n := 0; n < readsPerReader; n++ {
				before := ds.Epoch()
				res, err := ds.Diversify(opts(rd))
				after := ds.Epoch()
				if err != nil {
					t.Errorf("%v k=%d: %v", rd.algo, rd.k, err)
					return
				}
				ok := false
				for e := before; e <= after && !ok; e++ {
					ok = sameSelection(res, want[e][i])
				}
				if !ok {
					t.Errorf("%v k=%d epochs %d..%d: %v (cached %v) matches no recompute",
						rd.algo, rd.k, before, after, res.Indexes, res.SelectionCached)
					return
				}
				if res.SelectionCached {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}
		}(i, rd)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range ops {
			if err := op(ds); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	reads := len(readers) * readsPerReader
	t.Logf("%d of %d reads were memo hits", hits, reads)
	if minHits := reads - len(readers)*(writes+2); hits < minHits {
		t.Errorf("%d of %d reads were memo hits, want at least %d", hits, reads, minHits)
	}
	if got := ds.FingerprintCacheStats().SelectionHits; got != int64(hits) {
		t.Errorf("SelectionHits = %d, want %d", got, hits)
	}
}
