package core

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

const (
	maintainT    = 64
	maintainSeed = int64(7)
)

func maintainKey(epoch uint64) FingerprintKey {
	return FingerprintKey{Epoch: epoch, Mode: IndexFree, T: maintainT, Seed: maintainSeed}
}

// freshIF runs the wholesale index-free generator against the current state.
func freshIF(t *testing.T, ds *data.Dataset, sky []int) *Fingerprint {
	t.Helper()
	fam, err := minhash.NewFamily(maintainT, maintainSeed)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := SigGenIF(ds, sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func sameFingerprint(t *testing.T, step int, got, want *Fingerprint) {
	t.Helper()
	if got.Matrix.Cols() != want.Matrix.Cols() {
		t.Fatalf("step %d: %d columns, want %d", step, got.Matrix.Cols(), want.Matrix.Cols())
	}
	for c := 0; c < want.Matrix.Cols(); c++ {
		g, w := got.Matrix.Column(c), want.Matrix.Column(c)
		for s := range w {
			if g[s] != w[s] {
				t.Fatalf("step %d: column %d slot %d = %d, want %d", step, c, s, g[s], w[s])
			}
		}
		if got.DomScore[c] != want.DomScore[c] {
			t.Fatalf("step %d: DomScore[%d] = %v, want %v", step, c, got.DomScore[c], want.DomScore[c])
		}
	}
}

func sameInts(t *testing.T, step int, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s has %d entries, want %d\ngot  %v\nwant %v", step, what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %s[%d] = %d, want %d\ngot  %v\nwant %v", step, what, i, got[i], want[i], got, want)
		}
	}
}

// sameVectors checks carried LSH bit-vectors against a fresh build over the
// wholesale fingerprint: every zone's bucket and every Hamming pair.
func sameVectors(t *testing.T, step int, got *lsh.BitVectors, want *Fingerprint, p lsh.Params, seed int64) {
	t.Helper()
	fresh, err := lsh.Build(want.Matrix, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cols() != fresh.Cols() || got.MemoryBytes() != fresh.MemoryBytes() {
		t.Fatalf("step %d: %d vectors of %d bytes, want %d of %d", step, got.Cols(), got.MemoryBytes(), fresh.Cols(), fresh.MemoryBytes())
	}
	for c := 0; c < fresh.Cols(); c++ {
		for z := 0; z < p.Zones; z++ {
			if g, w := got.Bucket(c, z), fresh.Bucket(c, z); g != w {
				t.Fatalf("step %d: column %d zone %d in bucket %d, want %d", step, c, z, g, w)
			}
		}
		for j := 0; j < c; j++ {
			if g, w := got.Hamming(c, j), fresh.Hamming(c, j); g != w {
				t.Fatalf("step %d: Hamming(%d, %d) = %d, want %d", step, c, j, g, w)
			}
		}
	}
}

// TestApplyMutationsMatchWholesale drives a random sequence of single and
// batched inserts and deletes through ApplyInsertBatch and
// ApplyDeleteBatch (a single write is a batch of one), and checks after
// every step that the
// maintained skyline equals a from-scratch SFS pass, that the patched
// cached fingerprint is bit-identical to a from-scratch SigGen-IF pass —
// including matching domination scores — and that the LSH bit-vectors
// carried with it equal a fresh build over that pass. Quantized coordinates
// force plenty of duplicates (equal-twin tie-breaks), dominance chains
// (demotions) and skyline-member deletions (promotions).
func TestApplyMutationsMatchWholesale(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const dims, levels, start, steps = 3, 6, 250, 140
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
	ds, err := data.FromRows("mut", rows)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reopen(0.2)
	sky, err := skyline.ComputeBBS(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache so every step patches rather than rebuilds, and give
	// the entry LSH bit-vectors (t = 64: ζ = 16 zones of 4 slots) so every
	// step carries them.
	cache := NewFingerprintCache(8)
	epoch := uint64(0)
	params, err := lsh.ChooseParams(maintainT, 0.2, 20)
	if err != nil {
		t.Fatal(err)
	}
	const zoneSeed = maintainSeed + 1
	warm := freshIF(t, ds, sky)
	warm.lsh = new(atomic.Pointer[lshVectors])
	if _, _, err := warm.bitVectors(context.Background(), params, zoneSeed); err != nil {
		t.Fatal(err)
	}
	cache.Install(maintainKey(epoch), warm)

	var live []int
	for i := 0; i < ds.Len(); i++ {
		live = append(live, i)
	}
	takeLive := func() int {
		i := r.Intn(len(live))
		row := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return row
	}
	batch := rand.New(rand.NewSource(12)) // batch choices, apart from the point stream
	for step := 0; step < steps; step++ {
		n := 1
		if batch.Intn(4) == 0 {
			n = 2 + batch.Intn(4)
		}
		if r.Intn(2) == 0 && len(live) > n {
			if n == 1 {
				sky, err = ApplyDeleteBatch(ds, tr, sky, cache, epoch, epoch+1, []int{takeLive()})
			} else {
				del := make([]int, n)
				for i := range del {
					del[i] = takeLive()
				}
				sky, err = ApplyDeleteBatch(ds, tr, sky, cache, epoch, epoch+1, del)
			}
		} else if n == 1 {
			var rows []int
			sky, rows, err = ApplyInsertBatch(ds, tr, sky, cache, epoch, epoch+1, [][]float64{randPoint()})
			live = append(live, rows...)
		} else {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = randPoint()
			}
			var added []int
			sky, added, err = ApplyInsertBatch(ds, tr, sky, cache, epoch, epoch+1, pts)
			live = append(live, added...)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		epoch++

		sameInts(t, step, "skyline", sky, skyline.ComputeSFS(ds))
		got, ok := cache.Peek(maintainKey(epoch))
		if !ok {
			t.Fatalf("step %d: no migrated fingerprint at epoch %d", step, epoch)
		}
		want := freshIF(t, ds, sky)
		sameFingerprint(t, step, got, want)
		v := got.lshMemo()
		if v == nil || v.params != params || v.seed != zoneSeed {
			t.Fatalf("step %d: the migrated entry carries no vectors for %+v seed %d", step, params, zoneSeed)
		}
		sameVectors(t, step, v.vectors, want, params, zoneSeed)
		if tr.Len() != len(live) {
			t.Fatalf("step %d: tree holds %d rows, want %d", step, tr.Len(), len(live))
		}
	}
	if ds.LiveLen() != len(live) {
		t.Fatalf("LiveLen = %d, want %d", ds.LiveLen(), len(live))
	}
}

// TestMutationCacheMigration pins the cache policy of a mutation: completed
// index-free entries at the old epoch are patched forward, index-based
// entries and entries from unrelated epochs are dropped.
func TestMutationCacheMigration(t *testing.T) {
	ds, err := data.FromRows("mig", [][]float64{
		{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}, {0.8, 0.8}, {0.3, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reopen(0.2)
	sky, err := skyline.ComputeBBS(tr)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFingerprintCache(8)
	fp := freshIF(t, ds, sky)
	ifKey := maintainKey(0)
	ibKey := FingerprintKey{Epoch: 0, Mode: IndexBased, T: maintainT, Seed: maintainSeed}
	staleKey := FingerprintKey{Epoch: 42, Mode: IndexFree, T: maintainT, Seed: maintainSeed}
	cache.Install(ifKey, fp)
	cache.Install(ibKey, fp)
	cache.Install(staleKey, fp)

	sky, _, err = ApplyInsertBatch(ds, tr, sky, cache, 0, 1, [][]float64{{0.2, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []FingerprintKey{ifKey, ibKey, staleKey} {
		if _, ok := cache.Peek(k); ok {
			t.Errorf("entry %+v survived the mutation", k)
		}
	}
	got, ok := cache.Peek(maintainKey(1))
	if !ok {
		t.Fatal("no migrated index-free entry at the new epoch")
	}
	sameFingerprint(t, 0, got, freshIF(t, ds, sky))
}

// TestInsertIntoEmptySkyline: the batch entries read a nil skyline as an
// empty one. BBS returns nil for a tree with no live rows, and a point
// inserted there is the whole new skyline.
func TestInsertIntoEmptySkyline(t *testing.T) {
	ds, err := data.FromRows("empty", [][]float64{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reopen(0.2)
	if _, err := ApplyDeleteBatch(ds, tr, []int{0}, nil, 0, 1, []int{0}); err != nil {
		t.Fatal(err)
	}
	sky, err := skyline.ComputeBBS(tr)
	if err != nil || sky != nil {
		t.Fatalf("BBS over no live rows: %v %v, want nil nil", sky, err)
	}
	sky, rows, err := ApplyInsertBatch(ds, tr, sky, NewFingerprintCache(8), 1, 2, [][]float64{{0.7, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, []int{1}) || !slices.Equal(sky, []int{1}) || tr.Len() != 1 {
		t.Fatalf("rows %v, skyline %v, tree %d rows; want [1], [1] and 1", rows, sky, tr.Len())
	}
}

// TestMutationValidation pins the argument errors.
func TestMutationValidation(t *testing.T) {
	ds, _ := data.FromRows("val", [][]float64{{0.1, 0.9}, {0.9, 0.1}})
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reopen(0.2)
	if _, _, err := ApplyInsertBatch(ds, nil, nil, nil, 0, 1, [][]float64{{0, 0}}); err == nil {
		t.Error("insert without index succeeded")
	}
	if _, _, err := ApplyInsertBatch(ds, tr, nil, nil, 0, 1, [][]float64{{0, 0, 0}}); err == nil {
		t.Error("insert with wrong dims succeeded")
	}
	if _, err := ApplyDeleteBatch(ds, nil, nil, nil, 0, 1, []int{0}); err == nil {
		t.Error("delete without index succeeded")
	}
	if _, err := ApplyDeleteBatch(ds, tr, nil, nil, 0, 1, []int{7}); err == nil {
		t.Error("delete of missing row succeeded")
	}
	if _, err := ApplyDeleteBatch(ds, tr, nil, nil, 0, 1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDeleteBatch(ds, tr, nil, nil, 1, 2, []int{0}); err == nil {
		t.Error("double delete succeeded")
	}
}

// TestDeleteRepairsEveryMatchingColumn deletes a dominated row whose hashes
// hold slot minima in both of its dominator columns, so both columns must be
// repaired from their remaining rows. The check of the second column must
// test the departed row's hashes, not those of a row hashed while the first
// column was repaired.
func TestDeleteRepairsEveryMatchingColumn(t *testing.T) {
	ds, err := data.FromRows("refold", [][]float64{
		{0.1, 0.5}, {0.5, 0.1}, // the skyline
		{0.6, 0.6},             // row 2: dominated by both skyline points
		{0.2, 0.9}, {0.3, 0.8}, // dominated by column 0 only
		{0.9, 0.2}, {0.8, 0.3}, // dominated by column 1 only
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reopen(0.2)
	sky, err := skyline.ComputeBBS(tr)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFingerprintCache(8)
	before := freshIF(t, ds, sky)
	cache.Install(maintainKey(0), before)

	fam, err := minhash.NewFamily(maintainT, maintainSeed)
	if err != nil {
		t.Fatal(err)
	}
	hv := make([]uint32, maintainT)
	fam.HashAll(hv, 2)
	matching := 0
	for c := range sky {
		if before.Matrix.ColumnMatchesAny(c, hv) {
			matching++
		}
	}
	if len(sky) != 2 || matching != 2 {
		t.Fatalf("fixture: skyline %v, row 2 holds slot minima in %d columns; want 2 and 2", sky, matching)
	}

	if sky, err = ApplyDeleteBatch(ds, tr, sky, cache, 0, 1, []int{2}); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Peek(maintainKey(1))
	if !ok {
		t.Fatal("no migrated fingerprint at epoch 1")
	}
	sameFingerprint(t, 0, got, freshIF(t, ds, sky))
}
