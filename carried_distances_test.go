package skydiver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"skydiver/internal/budget"
)

// carried_distances_test.go pins the distances a cached fingerprint keeps
// with its pick orders: a selection reads the counts an earlier selection
// under the same key and distance computed, carried across writes for
// every pair of columns the writes left unchanged, and its answer is still
// the one a NoCache recompute gives, bit for bit.

// TestCarriedDistancesModel runs random single and batched inserts and
// deletes on ANT data, several between two reads at times, with inserts of
// points strong enough to join the skyline and demote members and deletes
// of skyline members that promote others. Cached MinHash and LSH reads over
// two hash seeds must equal their NoCache recomputes; NoCache reads and the
// first read of a key reuse nothing, a read served from the stored order
// selects nothing, and post-write reads reuse estimates.
func TestCarriedDistancesModel(t *testing.T) {
	ds, err := Generate(Anticorrelated, 3000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	live := make([]int, ds.Len())
	for i := range live {
		live[i] = i
	}
	take := func(i int) int {
		row := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return row
	}
	skyline := func() []int {
		sky, err := ds.Skyline()
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(sky)
	}
	// takeSkyline deletes a skyline member, so the rows it excluded alone
	// are promoted.
	takeSkyline := func() int {
		sky := skyline()
		return take(slices.Index(live, sky[r.Intn(len(sky))]))
	}
	// point draws an anticorrelated point, scaled down at times so that it
	// joins the skyline and demotes the members it dominates.
	point := func() []float64 {
		x, y := r.Float64(), r.Float64()
		p := []float64{x, y, max(0, 1-x-y)}
		if r.Intn(3) == 0 {
			for i := range p {
				p[i] *= 0.8
			}
		}
		return p
	}
	write := func() {
		switch r.Intn(4) {
		case 0:
			row, err := ds.Insert(point())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, row)
		case 1:
			var row int
			if r.Intn(2) == 0 {
				row = takeSkyline()
			} else {
				row = take(r.Intn(len(live)))
			}
			if err := ds.Delete(row); err != nil {
				t.Fatal(err)
			}
		case 2:
			rows, err := ds.InsertBatch([][]float64{point(), point(), point()})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, rows...)
		default:
			if err := ds.DeleteBatch([]int{takeSkyline(), take(r.Intn(len(live)))}); err != nil {
				t.Fatal(err)
			}
		}
	}

	type key struct {
		seed int64
		algo Algorithm
	}
	read := map[key]bool{}    // the key has been read
	written := map[key]bool{} // a write came after the key's last read
	stored := map[key]int{}   // the stored order's length
	var joins, demotions, promotions int
	var postWrite, postWriteReusing, reusedSum int
	for step := 0; step < 240; step++ {
		if r.Intn(3) == 0 {
			before := skyline()
			for n := 1 + r.Intn(3); n > 0; n-- {
				write()
			}
			after := skyline()
			for _, row := range after {
				if !slices.Contains(before, row) {
					if row >= 3000 {
						joins++
					} else {
						promotions++
					}
				}
			}
			for _, row := range before {
				if !slices.Contains(after, row) && slices.Contains(live, row) {
					demotions++
				}
			}
			for k := range read {
				written[k] = true
			}
			clear(stored)
			continue
		}
		m, err := ds.SkylineSize()
		if err != nil {
			t.Fatal(err)
		}
		k := key{seed: int64(1 + r.Intn(2)), algo: MinHash}
		if r.Intn(3) == 0 {
			k.algo = LSH
		}
		opts := Options{K: min(2+r.Intn(11), m), SignatureSize: 64, Seed: k.seed, Algorithm: k.algo}
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
		label := fmt.Sprintf("step %d %v seed %d k %d", step, k.algo, k.seed, opts.K)
		if !sameSelection(cached, want) {
			t.Fatalf("%s: cached %v (%v), recompute %v (%v)", label,
				cached.Indexes, cached.ObjectiveValue, want.Indexes, want.ObjectiveValue)
		}
		if want.EstimatesReused != 0 {
			t.Fatalf("%s: a NoCache read reused %d estimates", label, want.EstimatesReused)
		}
		switch {
		case !read[k] && cached.EstimatesReused != 0:
			t.Fatalf("%s: the key's first read reused %d estimates", label, cached.EstimatesReused)
		case cached.SelectionCached && cached.EstimatesReused != 0:
			t.Fatalf("%s: a read served from the stored order reused %d estimates", label, cached.EstimatesReused)
		case cached.SelectionCached != (stored[k] >= opts.K):
			t.Fatalf("%s: SelectionCached = %v with %d picks stored", label, cached.SelectionCached, stored[k])
		}
		if !cached.SelectionCached {
			stored[k] = max(stored[k], opts.K)
		}
		if written[k] && !cached.SelectionCached {
			postWrite++
			if cached.EstimatesReused > 0 {
				postWriteReusing++
			}
		}
		reusedSum += cached.EstimatesReused
		read[k], written[k] = true, false
	}
	t.Logf("%d joins, %d demotions, %d promotions; %d of %d post-write selections reused estimates, %d in all",
		joins, demotions, promotions, postWriteReusing, postWrite, reusedSum)
	if joins == 0 || demotions == 0 || promotions == 0 {
		t.Fatalf("the writes made %d joins, %d demotions and %d promotions; want some of each", joins, demotions, promotions)
	}
	if postWrite == 0 || 2*postWriteReusing < postWrite {
		t.Errorf("%d of %d post-write selections reused estimates, want at least half", postWriteReusing, postWrite)
	}
	if got := ds.FingerprintCacheStats().EstimatesReused; got != int64(reusedSum) {
		t.Errorf("FingerprintCacheStats().EstimatesReused = %d, want the reads' %d", got, reusedSum)
	}
}

// TestCarriedDistancesBudget charges a budgeted post-write read only the
// estimates it makes: after a write, the read under an estimation budget
// one short of what a fresh selection and its objective need completes,
// with the answer of a NoCache read, and is charged exactly the fresh
// read's estimates less those it reused.
func TestCarriedDistancesBudget(t *testing.T) {
	for _, algo := range []Algorithm{MinHash, LSH} {
		t.Run(algo.String(), func(t *testing.T) {
			ds, err := Generate(Anticorrelated, 4000, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{K: 8, SignatureSize: 64, Seed: 1, Algorithm: algo}
			if _, err := ds.Diversify(opts); err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
				t.Fatal(err)
			}
			charged := func(o Options, limit int64) (*Result, int64) {
				tracker := budget.NewTracker(budget.Budget{MaxEstimations: limit})
				ctx, cancel := budget.WithContext(context.Background(), tracker)
				defer cancel()
				res, err := ds.DiversifyContext(ctx, o)
				if err != nil {
					t.Fatalf("NoCache %v, limit %d: %v", o.NoCache, limit, err)
				}
				return res, tracker.Estimations()
			}
			fresh := opts
			fresh.NoCache = true
			want, full := charged(fresh, 1<<40)
			got, spent := charged(opts, full-1)
			if got.Partial || got.SelectionCached || !sameSelection(got, want) {
				t.Fatalf("post-write read: partial %v, cached %v, %v; want the complete answer %v",
					got.Partial, got.SelectionCached, got.Indexes, want.Indexes)
			}
			if got.EstimatesReused == 0 || spent != full-int64(got.EstimatesReused) {
				t.Errorf("charged %d estimates and reused %d; a fresh read makes %d", spent, got.EstimatesReused, full)
			}
		})
	}
}

// TestConcurrentReadersAfterWrite races eight readers of one key right
// after a write, so they select at once over the same carried rows (run it
// under -race). Each answer must be the NoCache one.
func TestConcurrentReadersAfterWrite(t *testing.T) {
	for _, algo := range []Algorithm{MinHash, LSH} {
		t.Run(algo.String(), func(t *testing.T) {
			ds, err := Generate(Anticorrelated, 3000, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{K: 10, SignatureSize: 64, Seed: 5, Algorithm: algo}
			if _, err := ds.Diversify(opts); err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Insert([]float64{0.4, 0.3, 0.4}); err != nil {
				t.Fatal(err)
			}
			fresh := opts
			fresh.NoCache = true
			want, err := ds.Diversify(fresh)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			results := make([]*Result, 8)
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := ds.Diversify(opts)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res
				}()
			}
			wg.Wait()
			reused := 0
			for i, res := range results {
				if !sameSelection(res, want) {
					t.Fatalf("reader %d: %v, want %v", i, res.Indexes, want.Indexes)
				}
				reused += res.EstimatesReused
			}
			if reused == 0 {
				t.Error("no reader reused an estimate")
			}
		})
	}
}
