package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
	"skydiver/internal/skyline"
)

// Window is a sliding window over a point stream, as a row source of write
// maintenance: its live rows are the consecutive ids [Lo, Hi), the stream
// sequence numbers of its points, and Point returns the coordinates of any
// of them. It is the stream monitor's way into the maintenance a Dataset's
// writes run: Insert and Evict are ApplyInsertBatch and ApplyDeleteBatch
// for one row and one fingerprint, with the window scanned where a Dataset
// queries its R*-tree, and Rebuild is the range fold every index-free
// generator runs.
type Window struct {
	Lo, Hi int
	Point  func(row int) []float64
}

func (w *Window) point(row int) []float64 { return w.Point(row) }

// region scans the window. No coordinate of a row in p's dominance region
// is below p's, the test the R*-tree's range query applies.
func (w *Window) region(p []float64, visit func(row int, q []float64)) error {
	for row := w.Lo; row < w.Hi; row++ {
		if q := w.Point(row); geom.DominatesOrEqual(p, q) {
			visit(row, q)
		}
	}
	return nil
}

// repair recomputes the held slots of every column of cols in one pass
// over the window. The prefix-bitset kernel, prepared over the repaired
// columns' points, finds the repaired columns dominating each row; the
// row is hashed at the held slots only, and each of those columns lowers
// its held slots' running minima. No column's Γ is listed, and the slots
// the departed row did not hold are never hashed and keep their values.
func (w *Window) repair(fam *minhash.Family, mx *minhash.Matrix, hv []uint32, sky, cols []int, changed func(c int)) error {
	t := mx.T()
	// Column cols[j] holds the slots slots[start[j]:start[j+1]]; minv holds
	// their running minima. union lists every held slot once.
	start := make([]int, len(cols)+1)
	var slots []int32
	var union []int32
	inUnion := make([]bool, t)
	for j, c := range cols {
		for i, v := range mx.Column(c) {
			if v != hv[i] {
				continue
			}
			slots = append(slots, int32(i))
			if !inUnion[i] {
				inUnion[i] = true
				union = append(union, int32(i))
			}
		}
		start[j+1] = len(slots)
	}
	minv := make([]uint32, len(slots))
	for k := range minv {
		minv[k] = math.MaxUint32
	}
	pts := make([][]float64, len(cols))
	for j, c := range cols {
		pts[j] = w.Point(sky[c])
	}
	pr := prepareSkylineFrom(len(pts[0]), len(cols), func(j int) []float64 { return pts[j] }).probe()
	hx := make([]uint32, t)
	for row := w.Lo; row < w.Hi; row++ {
		if !pr.dominatorSet(pr.set, w.Point(row)) {
			continue
		}
		for _, i := range union {
			hx[i] = fam.Hash(int(i), uint64(row))
		}
		for wd, v := range pr.set {
			for ; v != 0; v &= v - 1 {
				j := wd<<6 | bits.TrailingZeros64(v)
				for k := start[j]; k < start[j+1]; k++ {
					minv[k] = min(minv[k], hx[slots[k]])
				}
			}
		}
	}
	col := make([]uint32, t)
	for j, c := range cols {
		copy(col, mx.Column(c))
		same := true
		for k := start[j]; k < start[j+1]; k++ {
			same = same && col[slots[k]] == minv[k]
			col[slots[k]] = minv[k]
		}
		// Rewrite the column so its screen bounds are recomputed exactly.
		mx.ResetColumn(c)
		mx.UpdateColumn(c, col)
		if !same {
			changed(c)
		}
	}
	return nil
}

// Rebuild is the wholesale pass over a non-empty window: SFS over a
// materialized copy of its rows for the skyline, then the range fold of
// every row (rowFold.fold), hashed by row id. It returns the skyline as
// ascending row ids and its fingerprint, which carries no I/O stats. A
// cancelled fold returns the context's error.
func (w *Window) Rebuild(ctx context.Context, fam *minhash.Family) ([]int, *Fingerprint, error) {
	n := w.Hi - w.Lo
	if n <= 0 {
		return nil, nil, fmt.Errorf("core: empty window")
	}
	dims := len(w.Point(w.Lo))
	vals := make([]float64, 0, n*dims)
	for row := w.Lo; row < w.Hi; row++ {
		vals = append(vals, w.Point(row)...)
	}
	ds, err := data.New("window", dims, vals)
	if err != nil {
		return nil, nil, err
	}
	sky := skyline.ComputeSFS(ds)
	f := newRowFold(ds, sky, fam)
	f.base = uint64(w.Lo)
	fp, err := f.fold(ctx, 0, n)
	if err != nil {
		return nil, nil, err
	}
	for i := range sky {
		sky[i] += w.Lo
	}
	return sky, fp, nil
}

// Insert maintains sky, the window's skyline before row Hi−1 joined it
// (ascending row ids), and its fingerprint fp for that row's arrival: the
// skyline update and fingerprint patch of a one-row ApplyInsertBatch. It
// returns the new skyline; fp is patched in place.
func (w *Window) Insert(fam *minhash.Family, sky []int, fp *Fingerprint) ([]int, error) {
	newSky, ins, err := insertSkyline(w, sky, w.Hi-1)
	if err != nil {
		return nil, err
	}
	(&fpPatch{fp: fp, fam: fam, hv: make([]uint32, fam.Size())}).insert(ins)
	return newSky, nil
}

// Evict maintains sky and fp for row Lo−1, whose point was pt, leaving the
// window: the skyline update and fingerprint patch of a one-row
// ApplyDeleteBatch. It returns the new skyline; fp is patched in place.
func (w *Window) Evict(fam *minhash.Family, sky []int, fp *Fingerprint, pt []float64) ([]int, error) {
	newSky, del, err := deleteSkyline(w, sky, w.Lo-1, pt)
	if err != nil {
		return nil, err
	}
	return newSky, (&fpPatch{fp: fp, fam: fam, hv: make([]uint32, fam.Size())}).delete(del)
}
