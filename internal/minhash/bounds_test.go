package minhash

import (
	"slices"
	"testing"
	"testing/quick"
)

// bounds_test.go pins the screened fold paths to the plain fold: the
// slot-max and group-max screens are pure short-circuits and must never
// change a single slot, for any update sequence, signature size, or column
// count.

// TestGroupedFoldMatchesPlain: folding through FoldRow (the grouped fold)
// and UpdateColumnBounded produces matrices bit-identical to UpdateColumn,
// with HashAllMin and a stepper's HashGroupMin agreeing with HashAll on the
// way.
func TestGroupedFoldMatchesPlain(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 8, 9, 15, 16, 31, 100, 163}
	for _, size := range sizes {
		f := func(rows []uint16, colPick []uint8) bool {
			const cols = 3
			fam, _ := NewFamily(size, int64(size))
			plain := NewMatrix(size, cols)
			bounded := NewMatrix(size, cols)
			rowFold := NewMatrix(size, cols)
			st := fam.Stepper(0, size)
			hv := make([]uint32, size)
			hvMin := make([]uint32, size)
			hvGrp := make([]uint32, size)
			gm := make([]uint32, rowFold.groups)
			for k, r := range rows {
				c := 0
				if k < len(colPick) {
					c = int(colPick[k]) % cols
				}
				fam.HashAll(hv, uint64(r))
				minHv := fam.HashAllMin(hvMin, uint64(r))
				grpMin := st.HashGroupMin(hvGrp, uint64(r), gm)
				for i := range hv {
					if hv[i] != hvMin[i] || hv[i] != hvGrp[i] {
						return false
					}
				}
				if minHv != grpMin {
					return false
				}
				plain.UpdateColumn(c, hv)
				bounded.UpdateColumnBounded(c, hvMin, minHv)
				rowFold.FoldRow([]int32{int32(c)}, hvGrp, gm, grpMin)
			}
			for c := 0; c < cols; c++ {
				pc, bc, rc := plain.Column(c), bounded.Column(c), rowFold.Column(c)
				for i := range pc {
					if pc[i] != bc[i] || pc[i] != rc[i] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("t=%d: %v", size, err)
		}
	}
}

// TestBoundsStayExact: after arbitrary interleavings of the fold entry
// points on one matrix — UpdateColumn, UpdateColumnBounded and FoldRow on
// one column or on both — colMax and groupMax equal the true maxima of
// each column's slots after every call: the invariant every screen, the
// incremental maintenance and the LSH carry rely on. The slots must end as
// plain UpdateColumn calls leave them. At t = 100 FoldRow takes both its
// slot-sparse path and its grouped fallback, and the test checks that each
// ran.
func TestBoundsStayExact(t *testing.T) {
	var nSparse, nGrouped int // FoldRow calls at t = 100 by path
	exact := func(m *Matrix, size int) bool {
		for c := 0; c < m.Cols(); c++ {
			col := m.Column(c)
			if m.colMax[c] != slices.Max(col) {
				return false
			}
			g := m.groups
			for grp := 0; grp < g; grp++ {
				if m.groupMax[c*g+grp] != slices.Max(col[grp*size/g:(grp+1)*size/g]) {
					return false
				}
			}
		}
		return true
	}
	run := func(size int, rows []uint16, path []uint8) bool {
		const cols = 2
		fam, _ := NewFamily(size, 11)
		m, plain := NewMatrix(size, cols), NewMatrix(size, cols)
		st := fam.Stepper(0, size)
		hv := make([]uint32, size)
		gm := make([]uint32, m.groups)
		for k, r := range rows {
			c := int(r) % cols
			minHv := st.HashGroupMin(hv, uint64(r), gm)
			mode := uint8(2)
			if k < len(path) {
				mode = path[k] % 4
			}
			fold := []int32{int32(c)}
			if mode == 3 {
				fold = []int32{0, 1}
			}
			for _, c := range fold {
				plain.UpdateColumn(int(c), hv)
			}
			switch mode {
			case 0:
				m.UpdateColumn(c, hv)
			case 1:
				m.UpdateColumnBounded(c, hv, minHv)
			default:
				if size == 100 {
					var rs rowSlots
					switch sparse, admitted := rs.list(m, fold, hv, gm, minHv); {
					case !admitted:
					case sparse:
						nSparse++
					default:
						nGrouped++
					}
				}
				m.FoldRow(fold, hv, gm, minHv)
			}
			if !exact(m, size) {
				return false
			}
		}
		return slices.Equal(m.sig, plain.sig)
	}
	for _, size := range []int{24, 100} {
		f := func(rows []uint16, path []uint8) bool { return run(size, rows, path) }
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("t=%d: %v", size, err)
		}
	}
	// A long run fills the signatures, so late rows take the sparse path.
	rows, path := make([]uint16, 3000), make([]uint8, 3000)
	for k := range rows {
		rows[k], path[k] = uint16(k*7919), uint8(k%7)
	}
	if !run(100, rows, path) {
		t.Error("t=100: bounds drifted on the long run")
	}
	if nSparse == 0 || nGrouped == 0 {
		t.Errorf("t=100: FoldRow took the sparse path %d times and the grouped fold %d times; want both", nSparse, nGrouped)
	}
}

// TestRemoveRowMatchesRefold removes rows from random column sets and checks
// the repaired column — slots and screen bounds — against a fresh fold of
// the rows that remain, including a removal that empties the set.
func TestRemoveRowMatchesRefold(t *testing.T) {
	f := func(rows []uint16, drop uint8) bool {
		const size = 40
		fam, _ := NewFamily(size, 5)
		if len(rows) == 0 {
			rows = []uint16{7}
		}
		set := make([]int, 0, len(rows))
		for _, r := range rows {
			set = append(set, int(r))
		}
		gone := set[int(drop)%len(set)]
		var rest []int
		for _, r := range set {
			if r != gone {
				rest = append(rest, r)
			}
		}
		m, want := NewMatrix(size, 1), NewMatrix(size, 1)
		hv := make([]uint32, size)
		for _, r := range set {
			fam.HashAll(hv, uint64(r))
			m.UpdateColumn(0, hv)
		}
		for _, r := range rest {
			fam.HashAll(hv, uint64(r))
			want.UpdateColumn(0, hv)
		}
		fam.HashAll(hv, uint64(gone))
		m.RemoveRow(0, hv, fam, rest)
		return slices.Equal(m.Column(0), want.Column(0)) && m.colMax[0] == want.colMax[0] &&
			slices.Equal(m.groupMax, want.groupMax)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if !f([]uint16{3}, 0) {
		t.Error("removing the only row did not empty the column")
	}
}
