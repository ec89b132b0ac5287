package skydiver

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"skydiver/internal/data"
)

// liveRows returns the live points of d in row order plus the mapping from
// "fresh" indexes (a rebuild from scratch) back to d's row ids.
func liveRows(d *Dataset) (rows [][]float64, toOld []int) {
	for i := 0; i < d.Len(); i++ {
		if d.canon.Deleted(i) {
			continue
		}
		rows = append(rows, append([]float64(nil), d.Point(i)...))
		toOld = append(toOld, i)
	}
	return rows, toOld
}

// TestMutationsMatchRebuild drives a random insert/delete sequence through
// the public API (with a mixed Min/Max orientation, so canonicalization is
// exercised) and checks after every step that (a) the incrementally
// maintained skyline equals the skyline of a dataset rebuilt from scratch
// out of the live rows, and (b) a cached Diversify — served by the patched,
// epoch-migrated fingerprint — is identical to an uncached one that runs
// SigGen wholesale against the mutated state.
func TestMutationsMatchRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const dims, levels, start, steps = 3, 5, 120, 60
	prefs := []Pref{Min, Max, Min}
	randPoint := func() []float64 {
		p := make([]float64, dims)
		for d := range p {
			p[d] = float64(r.Intn(levels)) / float64(levels)
		}
		return p
	}
	rows := make([][]float64, start)
	for i := range rows {
		rows[i] = randPoint()
	}
	d, err := NewDataset("mut", rows, prefs)
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	for i := 0; i < start; i++ {
		live = append(live, i)
	}
	for step := 0; step < steps; step++ {
		if r.Intn(2) == 0 && len(live) > 1 {
			i := r.Intn(len(live))
			if err := d.Delete(live[i]); err != nil {
				t.Fatalf("step %d: delete row %d: %v", step, live[i], err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			row, err := d.Insert(randPoint())
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			live = append(live, row)
		}

		fresh, toOld := liveRows(d)
		ref, err := NewDataset("ref", fresh, prefs)
		if err != nil {
			t.Fatal(err)
		}
		wantSky, err := ref.Skyline()
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantSky {
			wantSky[i] = toOld[wantSky[i]]
		}
		gotSky, err := d.Skyline()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotSky) != len(wantSky) {
			t.Fatalf("step %d: skyline %v, want %v", step, gotSky, wantSky)
		}
		for i := range wantSky {
			if gotSky[i] != wantSky[i] {
				t.Fatalf("step %d: skyline %v, want %v", step, gotSky, wantSky)
			}
		}

		if step%5 != 0 {
			continue
		}
		k := 3
		if k > len(gotSky) {
			k = len(gotSky)
		}
		opts := Options{K: k, SignatureSize: 64, Seed: 9}
		cached, err := d.Diversify(opts)
		if err != nil {
			t.Fatalf("step %d: cached diversify: %v", step, err)
		}
		opts.NoCache = true
		cold, err := d.Diversify(opts)
		if err != nil {
			t.Fatalf("step %d: cold diversify: %v", step, err)
		}
		if len(cached.Indexes) != len(cold.Indexes) {
			t.Fatalf("step %d: cached %v vs cold %v", step, cached.Indexes, cold.Indexes)
		}
		for i := range cold.Indexes {
			if cached.Indexes[i] != cold.Indexes[i] {
				t.Fatalf("step %d: cached %v vs cold %v", step, cached.Indexes, cold.Indexes)
			}
		}
		if cached.ObjectiveValue != cold.ObjectiveValue {
			t.Fatalf("step %d: objective %v vs %v", step, cached.ObjectiveValue, cold.ObjectiveValue)
		}
	}
	if got := d.LiveLen(); got != len(live) {
		t.Fatalf("LiveLen = %d, want %d", got, len(live))
	}
}

// TestMutationEpochAndCache pins the epoch bookkeeping: mutations bump the
// epoch, the fingerprint built before a mutation keeps serving after it
// (migrated, not rebuilt), and the counters add up.
func TestMutationEpochAndCache(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	d, err := NewDataset("epoch", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", d.Epoch())
	}
	opts := Options{K: 3, SignatureSize: 64, Seed: 1}
	if _, err := d.Diversify(opts); err != nil {
		t.Fatal(err)
	}
	builds := d.FingerprintCacheStats().Builds

	row, err := d.Insert([]float64{0.01, 0.02, 0.03})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FingerprintCached {
		t.Error("post-insert query was not served from the migrated fingerprint")
	}
	if got := d.FingerprintCacheStats().Builds; got != builds {
		t.Errorf("mutation triggered a rebuild: %d builds, want %d", got, builds)
	}
	if err := d.Delete(row); err != nil {
		t.Fatal(err)
	}
	res, err = d.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FingerprintCached {
		t.Error("post-delete query was not served from the migrated fingerprint")
	}
	ms := d.MutationStats()
	if ms.Inserts != 1 || ms.Deletes != 1 || ms.Epoch != 2 || ms.Live != 200 {
		t.Errorf("stats = %+v, want 1 insert, 1 delete, epoch 2, 200 live", ms)
	}
}

// TestMutationValidationPublic pins the public error surface.
func TestMutationValidationPublic(t *testing.T) {
	d, err := NewDataset("val", [][]float64{{1, 2}, {2, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert([]float64{1, 2, 3}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong-dims insert: %v", err)
	}
	if err := d.Delete(7); !errors.Is(err, ErrNoSuchPoint) {
		t.Errorf("missing-row delete: %v", err)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0); !errors.Is(err, ErrNoSuchPoint) {
		t.Errorf("double delete: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert([]float64{0, 0}); !errors.Is(err, ErrDatasetClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if err := d.Delete(1); !errors.Is(err, ErrDatasetClosed) {
		t.Errorf("delete after close: %v", err)
	}
}

// TestMutationOrientation checks that Insert takes points in the original
// orientation: on a Max-preferred dimension the larger value must win.
func TestMutationOrientation(t *testing.T) {
	d, err := NewDataset("orient", [][]float64{{1}, {5}}, []Pref{Max})
	if err != nil {
		t.Fatal(err)
	}
	row, err := d.Insert([]float64{9})
	if err != nil {
		t.Fatal(err)
	}
	sky, err := d.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) != 1 || sky[0] != row {
		t.Fatalf("skyline %v, want [%d]", sky, row)
	}
	if p := d.Point(row); p[0] != 9 {
		t.Fatalf("Point(%d) = %v, want the original orientation", row, p)
	}
}

// TestDatasetConcurrentMutationWave races queries against mutations on one
// shared dataset (run under -race). Writers insert fresh points and delete
// only rows they inserted themselves, so every operation must succeed; the
// final state must again equal an in-memory recompute.
func TestDatasetConcurrentMutationWave(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	d, err := NewDataset("wave", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Diversify(Options{K: 2, SignatureSize: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	const writers, readers, opsPerWriter, queries = 4, 4, 40, 20
	errc := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rw := rand.New(rand.NewSource(int64(100 + w)))
			var mine []int
			for op := 0; op < opsPerWriter; op++ {
				if rw.Intn(3) == 0 && len(mine) > 0 {
					row := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := d.Delete(row); err != nil {
						errc <- err
						return
					}
					continue
				}
				row, err := d.Insert([]float64{rw.Float64(), rw.Float64(), rw.Float64()})
				if err != nil {
					errc <- err
					return
				}
				mine = append(mine, row)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				sky, err := d.Skyline()
				if err != nil {
					errc <- err
					return
				}
				if len(sky) == 0 {
					errc <- errors.New("empty skyline")
					return
				}
				if _, err := d.Diversify(Options{K: 2, SignatureSize: 32, Seed: 1}); err != nil {
					errc <- err
					return
				}
				if _, err := d.SkylineSize(); err != nil {
					errc <- err
					return
				}
				_ = d.LiveLen()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	got, err := d.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.SkylineUsing(SFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("final skyline %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final skyline %v, want %v", got, want)
		}
	}
}

// FuzzDatasetMutations feeds arbitrary mutation scripts through the public
// API: each byte either inserts a 2-D point decoded from its nibbles or
// deletes a previously inserted row. After the script, the incrementally
// maintained skyline must equal the in-memory SFS recompute of the same
// (mutated) dataset.
func FuzzDatasetMutations(f *testing.F) {
	f.Add([]byte{0x12, 0x21, 0x00})
	f.Add([]byte{0x11, 0x11, 0x80, 0x81})
	f.Add([]byte{0xff, 0x0f, 0xf0, 0x84, 0x33})
	f.Fuzz(func(t *testing.T, script []byte) {
		d, err := NewDataset("fuzz", [][]float64{{8, 8}, {9, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		live := []int{0, 1}
		for _, b := range script {
			if b&0x80 != 0 && len(live) > 1 {
				i := int(b&0x7f) % len(live)
				if err := d.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			row, err := d.Insert([]float64{float64(b >> 4), float64(b & 0x0f)})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, row)
		}
		got, err := d.Skyline()
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.SkylineUsing(SFS)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("skyline %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skyline %v, want %v", got, want)
			}
		}
	})
}

// BenchmarkDatasetInsert measures end-to-end mutation throughput on the
// public Dataset: each insert runs the incremental skyline test, patches the
// cached fingerprints forward to the new epoch, and bumps the mutation
// counters. The dataset is pre-warmed with a query so the fingerprint
// migration path (not just the skyline test) is on the measured path.
func BenchmarkDatasetInsert(b *testing.B) {
	benchDatasetInsert(b, MinHash)
}

// BenchmarkDatasetInsertLSH is BenchmarkDatasetInsert with the warm-up
// query run by LSH, so the resident fingerprint carries bit-vectors and
// every insert also pays their carry to the new epoch.
func BenchmarkDatasetInsertLSH(b *testing.B) {
	benchDatasetInsert(b, LSH)
}

func benchDatasetInsert(b *testing.B, algo Algorithm) {
	d, r := benchWarmDataset(b, algo)
	defer d.Close()
	p := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p[0], p[1], p[2] = r.Float64(), r.Float64(), r.Float64()
		if _, err := d.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetDelete is the delete side of BenchmarkDatasetInsert: on
// the same dataset and warm MinHash key, each op deletes a distinct live
// row, drawn in random order, so skyline members (promotions) and
// dominated rows (slot repairs) both come up.
func BenchmarkDatasetDelete(b *testing.B) {
	d, r := benchWarmDataset(b, MinHash)
	defer d.Close()
	rows := r.Perm(d.Len())
	if b.N > len(rows) {
		b.Fatalf("%d deletes exceed the %d rows", b.N, len(rows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Delete(rows[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetWriteRead times a write together with the reads it makes
// select again, in the serving shape: ANT-20K-4D with four resident
// fingerprint keys (t = 100, hash seeds 1–4). Each op applies an insert of
// a fresh anticorrelated point or a delete of an original row, in turn,
// and then reads every key at k = 10 under MinHash and under LSH, so it
// pays the fingerprint patch and eight post-write selections.
func BenchmarkDatasetWriteRead(b *testing.B) {
	d, err := Generate(Anticorrelated, 20000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	fresh, err := Generate(Anticorrelated, b.N/2+1, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	rows := rand.New(rand.NewSource(3)).Perm(d.Len())
	if b.N/2 > len(rows) {
		b.Fatalf("%d deletes exceed the %d rows", b.N/2, len(rows))
	}
	read := func() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, algo := range []Algorithm{MinHash, LSH} {
				if _, err := d.Diversify(Options{K: 10, SignatureSize: 100, Seed: seed, Algorithm: algo}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	read()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if _, err := d.Insert(fresh.Point(i / 2)); err != nil {
				b.Fatal(err)
			}
		} else if err := d.Delete(rows[i/2]); err != nil {
			b.Fatal(err)
		}
		read()
	}
}

// benchWarmDataset builds the write benchmarks' 20K-row 3-D dataset and
// warms one fingerprint key with a query run by algo. It returns the
// dataset and the random stream, positioned after the rows.
func benchWarmDataset(b *testing.B, algo Algorithm) (*Dataset, *rand.Rand) {
	r := rand.New(rand.NewSource(42))
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	d, err := NewDataset("bench", pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Diversify(Options{K: 5, SignatureSize: 64, Seed: 1, Algorithm: algo}); err != nil {
		d.Close()
		b.Fatal(err)
	}
	return d, r
}

// TestCachedAnswerSurvivesDominatedDeletes replays, through the public API,
// the write sequence that exposed stale signature columns after a delete of
// a dominated row: ANT-20K-4D with a resident fingerprint, then inserts of
// fresh anticorrelated points alternating with deletes of random rows. Its
// 62nd write, Delete(6139), removes a row outside the skyline whose hashes
// hold slot minima in several dominator columns; the maintained answer must
// still equal an uncached recompute. The LSH run also carries the entry's
// bit-vectors across every write, so its answer and MemoryBytes must match
// the recompute's too.
func TestCachedAnswerSurvivesDominatedDeletes(t *testing.T) {
	for _, algo := range []Algorithm{MinHash, LSH} {
		t.Run(algo.String(), func(t *testing.T) {
			ds, err := Generate(Anticorrelated, 20000, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			opts := Options{K: 10, SignatureSize: 100, Seed: 1597969999, Algorithm: algo}
			if _, err := ds.Diversify(opts); err != nil {
				t.Fatal(err)
			}
			inserts := data.Anticorrelated(8192, 4, 1)
			deletes := rand.New(rand.NewSource(1)).Perm(20000)
			if deletes[30] != 6139 {
				t.Fatalf("fixture: the 31st delete is row %d, want 6139", deletes[30])
			}
			for n := 0; n < 62; n++ {
				if n%2 == 0 {
					_, err = ds.Insert(inserts.Point(n / 2))
				} else {
					err = ds.Delete(deletes[n/2])
				}
				if err != nil {
					t.Fatalf("write %d: %v", n+1, err)
				}
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
			if !slices.Equal(cached.Indexes, fresh.Indexes) {
				t.Fatalf("maintained answer %v, recompute %v", cached.Indexes, fresh.Indexes)
			}
			if cached.MemoryBytes != fresh.MemoryBytes || cached.ObjectiveValue != fresh.ObjectiveValue {
				t.Fatalf("maintained MemoryBytes %d objective %v, recompute %d %v",
					cached.MemoryBytes, cached.ObjectiveValue, fresh.MemoryBytes, fresh.ObjectiveValue)
			}
		})
	}
}
