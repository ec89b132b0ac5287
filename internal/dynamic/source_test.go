package dynamic

import (
	"math/rand"
	"testing"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

// TestWindowMatchesTreeSource feeds one FIFO stream through both row
// sources of core's write maintenance: a Dataset's R*-tree, written with
// one-row batches, core.ApplyDeleteBatch of the oldest row and
// core.ApplyInsertBatch of the arriving point, and the monitor's window. The dataset starts with the window's
// first points, so a row index is its point's sequence number and both
// sources hash it alike. After every step the skyline ids, every matrix
// slot and every domination score must be bit-identical. Quantized
// coordinates make twins, demotions and promotions frequent.
func TestWindowMatchesTreeSource(t *testing.T) {
	cases := []struct {
		seed                          int64
		dims, capacity, levels, steps int
	}{
		{seed: 21, dims: 2, capacity: 16, levels: 4, steps: 400},
		{seed: 22, dims: 3, capacity: 48, levels: 5, steps: 600},
	}
	const sigSize = 64
	for _, tc := range cases {
		r := rand.New(rand.NewSource(tc.seed))
		randPoint := func() []float64 {
			p := make([]float64, tc.dims)
			for d := range p {
				p[d] = float64(r.Intn(tc.levels)) / float64(tc.levels)
			}
			return p
		}
		m, err := NewMonitor(tc.dims, tc.capacity, 3, sigSize, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, tc.capacity)
		for i := range rows {
			rows[i] = randPoint()
			if _, err := m.Add(rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := data.FromRows("window", rows)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rtree.BulkLoad(ds)
		if err != nil {
			t.Fatal(err)
		}
		tr.Reopen(0.2)
		sky := skyline.ComputeSFS(ds)
		fam, err := minhash.NewFamily(sigSize, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := core.SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		key := func(epoch uint64) core.FingerprintKey {
			return core.FingerprintKey{Epoch: epoch, Mode: core.IndexFree, T: sigSize, Seed: tc.seed}
		}
		cache := core.NewFingerprintCache(4)
		cache.Install(key(0), fp)
		epoch := uint64(0)
		for step := 0; step <= tc.steps; step++ {
			if step > 0 {
				p := randPoint()
				if _, err := m.Add(p); err != nil {
					t.Fatal(err)
				}
				if sky, err = core.ApplyDeleteBatch(ds, tr, sky, cache, epoch, epoch+1, []int{step - 1}); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				if sky, _, err = core.ApplyInsertBatch(ds, tr, sky, cache, epoch+1, epoch+2, [][]float64{p}); err != nil {
					t.Fatalf("step %d: insert: %v", step, err)
				}
				epoch += 2
			}
			got, err := m.Skyline()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sky) {
				t.Fatalf("seed %d step %d: window skyline has %d members, tree skyline %d", tc.seed, step, len(got), len(sky))
			}
			for i, it := range got {
				if it.Seq != uint64(sky[i]) {
					t.Fatalf("seed %d step %d: skyline[%d] = seq %d, tree row %d", tc.seed, step, i, it.Seq, sky[i])
				}
			}
			want, ok := cache.Peek(key(epoch))
			if !ok {
				t.Fatalf("seed %d step %d: no migrated fingerprint at epoch %d", tc.seed, step, epoch)
			}
			if m.matrix.Cols() != want.Matrix.Cols() {
				t.Fatalf("seed %d step %d: %d columns, tree %d", tc.seed, step, m.matrix.Cols(), want.Matrix.Cols())
			}
			for c := range want.Matrix.Cols() {
				wc, tcol := m.matrix.Column(c), want.Matrix.Column(c)
				for s := range tcol {
					if wc[s] != tcol[s] {
						t.Fatalf("seed %d step %d: matrix[%d][%d] = %d, tree %d", tc.seed, step, c, s, wc[s], tcol[s])
					}
				}
				if m.domScore[c] != want.DomScore[c] {
					t.Fatalf("seed %d step %d: domScore[%d] = %v, tree %v", tc.seed, step, c, m.domScore[c], want.DomScore[c])
				}
			}
		}
	}
}
