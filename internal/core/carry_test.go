package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
)

// TestPickRowsBoundedBySignatureSize: a selection of every skyline point
// keeps distance rows for at most t of its picks, so the rows never take
// more bytes than the matrix beside them, under MinHash and under LSH.
func TestPickRowsBoundedBySignatureSize(t *testing.T) {
	ds := data.Anticorrelated(2000, 3, 1)
	in := testInput(t, ds)
	in.Cache = NewFingerprintCache(0)
	const sigT = 16
	m := len(in.Sky)
	if m <= sigT+1 {
		t.Fatalf("fixture: skyline of %d points, want more than %d", m, sigT+1)
	}
	cfg := Config{K: m, SignatureSize: sigT, Seed: 1}
	for _, run := range []func(context.Context, Input, Config) (*Result, error){SkyDiverMHCtx, SkyDiverLSHCtx} {
		if _, err := run(context.Background(), in, cfg); err != nil {
			t.Fatal(err)
		}
	}
	fp, ok := in.Cache.Peek(FingerprintKey{Mode: IndexFree, T: sigT, Seed: 1})
	if !ok {
		t.Fatal("no resident fingerprint")
	}
	for name, o := range map[string]*pickOrder{"MH": fp.picks, "LSH": &fp.lshMemo().picks} {
		p := o.load()
		if p == nil || len(p.order) != m {
			t.Fatalf("%s: no stored order of %d picks", name, m)
		}
		if len(p.rows) != sigT {
			t.Errorf("%s: %d rows kept, want t = %d", name, len(p.rows), sigT)
		}
		for _, r := range p.rows {
			if len(r.counts) != m {
				t.Fatalf("%s: a row of %d counts over %d columns", name, len(r.counts), m)
			}
		}
	}
}

// failingRepair is a Dataset's row source whose slot repairs fail, as a
// range query that hits a dead page does.
type failingRepair struct{ *treeSource }

var errRepair = errors.New("repair failed")

func (failingRepair) repair(*minhash.Family, *minhash.Matrix, []uint32, []int, []int, func(int)) error {
	return errRepair
}

// TestFailedRepairDropsEntry: a delete whose slot repair fails leaves no
// entry at either epoch, so the torn matrix is unreachable, and the next
// read rebuilds the fingerprint and answers as a fresh one.
func TestFailedRepairDropsEntry(t *testing.T) {
	ds := data.Anticorrelated(3000, 3, 4)
	in := testInput(t, ds)
	in.Cache = NewFingerprintCache(0)
	cfg := Config{K: 5, SignatureSize: maintainT, Seed: maintainSeed}
	want, err := SkyDiverMHCtx(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := in.Cache.Peek(maintainKey(0))
	if !ok {
		t.Fatal("no resident fingerprint")
	}
	// A dominated row whose hash values hold a slot of a dominating column,
	// so its delete needs a repair.
	fam, err := minhash.NewFamily(maintainT, maintainSeed)
	if err != nil {
		t.Fatal(err)
	}
	hv := make([]uint32, maintainT)
	del := &skyDeletion{row: -1, src: failingRepair{&treeSource{ds: ds, tr: in.Tree}}, oldSky: in.Sky}
	for row := 0; row < ds.Len() && del.row < 0; row++ {
		if slices.Contains(in.Sky, row) {
			continue
		}
		fam.HashAll(hv, uint64(row))
		var dom []int
		held := false
		for c, s := range in.Sky {
			if geom.Dominates(ds.Point(s), ds.Point(row)) {
				dom = append(dom, c)
				held = held || fp.Matrix.ColumnMatchesAny(c, hv)
			}
		}
		if held {
			del.row, del.domCols = row, dom
		}
	}
	if del.row < 0 {
		t.Fatal("fixture: no row holds a slot")
	}
	migrateFingerprints(in.Cache, 0, 1, in.Sky, in.Sky, func(p *fpPatch) error { return p.delete(del) })
	for _, epoch := range []uint64{0, 1} {
		if _, ok := in.Cache.Peek(maintainKey(epoch)); ok {
			t.Fatalf("an entry at epoch %d survived the failed repair", epoch)
		}
	}

	in.Epoch = 1
	got, err := SkyDiverMHCtx(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.FingerprintCached || in.Cache.Stats().Builds != 2 {
		t.Fatalf("the next read: cached %v after %d builds; want a rebuild", got.Stats.FingerprintCached, in.Cache.Stats().Builds)
	}
	if !slices.Equal(got.Selected, want.Selected) || got.ObjectiveValue != want.ObjectiveValue {
		t.Fatalf("rebuilt answer %v (%v), want %v (%v)", got.Selected, got.ObjectiveValue, want.Selected, want.ObjectiveValue)
	}
}

// TestCarriedCountsStayExact applies random inserts and deletes to a
// dataset whose resident fingerprint is read under MinHash and LSH between
// writes, and checks after every write and every read that each count the
// pick orders keep equals the live count on the patched matrix or vectors.
func TestCarriedCountsStayExact(t *testing.T) {
	ds := data.Anticorrelated(3000, 3, 9)
	in := testInput(t, ds)
	in.Cache = NewFingerprintCache(0)
	cfg := Config{K: 10, SignatureSize: maintainT, Seed: maintainSeed}
	r := rand.New(rand.NewSource(3))
	check := func(step int, when string) {
		fp, ok := in.Cache.Peek(maintainKey(in.Epoch))
		if !ok {
			t.Fatalf("step %d %s: no resident fingerprint", step, when)
		}
		v := fp.lshMemo()
		slots := map[string]*pickOrder{"MH": fp.picks, "LSH": &v.picks}
		counts := map[string]func(i, j int) int{"MH": fp.Matrix.Matches, "LSH": v.vectors.Hamming}
		for name, o := range slots {
			p := o.load()
			if p == nil {
				continue
			}
			for _, row := range p.rows {
				if len(row.counts) != fp.Matrix.Cols() {
					t.Fatalf("step %d %s %s: a row of %d counts over %d columns", step, when, name, len(row.counts), fp.Matrix.Cols())
				}
				for i, c := range row.counts {
					if c != unknownCount && int(c) != counts[name](i, row.col) {
						t.Fatalf("step %d %s %s: kept count %d between %d and %d, live %d",
							step, when, name, c, i, row.col, counts[name](i, row.col))
					}
				}
			}
		}
	}
	live := ds.Len()
	for step := 0; step < 80; step++ {
		for _, run := range []func(context.Context, Input, Config) (*Result, error){SkyDiverMHCtx, SkyDiverLSHCtx} {
			if _, err := run(context.Background(), in, cfg); err != nil {
				t.Fatal(err)
			}
		}
		check(step, "after the reads")
		var err error
		if r.Intn(2) == 0 {
			x, y := r.Float64(), r.Float64()
			pts := [][]float64{{x, y, max(0, 1-x-y)}}
			if r.Intn(3) == 0 {
				pts = append(pts, []float64{y * 0.7, x * 0.7, 0.1})
			}
			in.Sky, _, err = ApplyInsertBatch(ds, in.Tree, in.Sky, in.Cache, in.Epoch, in.Epoch+1, pts)
			live += len(pts)
		} else {
			row := r.Intn(ds.Len())
			for ds.Deleted(row) {
				row = r.Intn(ds.Len())
			}
			if r.Intn(2) == 0 {
				row = in.Sky[r.Intn(len(in.Sky))]
			}
			in.Sky, err = ApplyDeleteBatch(ds, in.Tree, in.Sky, in.Cache, in.Epoch, in.Epoch+1, []int{row})
			live--
		}
		if err != nil {
			t.Fatal(err)
		}
		in.Epoch++
		check(step, "after the write")
	}
	if ds.LiveLen() != live {
		t.Fatalf("%d live rows, want %d", ds.LiveLen(), live)
	}
}
