// Package skyline implements the skyline computation substrate: the
// block-nested-loops algorithm (BNL) of Börzsönyi et al., the sort-filter
// skyline (SFS) of Chomicki et al., a naive quadratic reference, and the
// progressive, I/O-optimal branch-and-bound skyline (BBS) of Papadias et al.
// over the aggregate R*-tree — the algorithm the paper singles out as the
// preferred index-based method (Section 2).
//
// All algorithms return the indexes of skyline points in the dataset, sorted
// ascending, under the canonical "smaller is better" orientation.
package skyline

import (
	"container/heap"
	"context"
	"slices"
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// ComputeNaive compares every pair of points. Quadratic; test oracle only.
func ComputeNaive(ds *data.Dataset) []int {
	n := ds.Len()
	var out []int
	for i := 0; i < n; i++ {
		if ds.Deleted(i) {
			continue
		}
		p := ds.Point(i)
		dominated := false
		for j := 0; j < n && !dominated; j++ {
			if j == i || ds.Deleted(j) {
				continue
			}
			q := ds.Point(j)
			if geom.Dominates(q, p) {
				dominated = true
			}
			// Keep only the first of identical points, so that duplicates do
			// not all enter the skyline.
			if geom.Equal(q, p) && j < i {
				dominated = true
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// ComputeBNL runs block-nested-loops with an unbounded in-memory window,
// which suffices since this reproduction never spills skyline candidates.
func ComputeBNL(ds *data.Dataset) []int {
	n := ds.Len()
	window := make([]int, 0, 64)
next:
	for i := 0; i < n; i++ {
		if ds.Deleted(i) {
			continue
		}
		p := ds.Point(i)
		for _, w := range window {
			q := ds.Point(w)
			if geom.Dominates(q, p) || geom.Equal(q, p) {
				// p loses. Window points are mutually incomparable, so p
				// cannot have dominated any of them either; the window is
				// unchanged.
				continue next
			}
		}
		keep := window[:0]
		for _, w := range window {
			if !geom.Dominates(p, ds.Point(w)) {
				keep = append(keep, w)
			}
		}
		window = append(keep, i)
	}
	sort.Ints(window)
	return window
}

// ComputeSFS presorts points by their L1 norm, ties by row id, and filters
// against the accumulated skyline. After sorting, no point can dominate an
// earlier one, so a single forward pass with dominance checks against
// retained points is exact. Each live row's norm is computed once, before
// the sort.
func ComputeSFS(ds *data.Dataset) []int {
	type keyed struct {
		l1 float64
		id int
	}
	n := ds.Len()
	order := make([]keyed, 0, n)
	for i := 0; i < n; i++ {
		if !ds.Deleted(i) {
			order = append(order, keyed{geom.L1(ds.Point(i)), i})
		}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		switch {
		case a.l1 < b.l1:
			return -1
		case a.l1 > b.l1:
			return 1
		}
		return a.id - b.id
	})
	var out []int
	for _, k := range order {
		i, p := k.id, ds.Point(k.id)
		dominated := false
		for _, s := range out {
			q := ds.Point(s)
			if geom.Dominates(q, p) || geom.Equal(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// bbsItem is a priority-queue element of the BBS traversal: either an
// intermediate entry (child != InvalidPage) or a data point.
type bbsItem struct {
	key   float64 // L1 mindist of the entry's MBR
	rect  geom.Rect
	child int64 // page id, or -1 for a data point
	rowID uint32
}

type bbsHeap []bbsItem

func (h bbsHeap) Len() int { return len(h) }

// Less orders by L1 mindist; ties open intermediate entries before accepting
// points and then prefer the smallest row id. With duplicate points this
// makes the oldest equal twin the skyline representative — the same
// tie-break as the scan-order algorithms (Naive, BNL, SFS, DC) and the one
// the incremental maintenance in internal/core relies on: a container whose
// corner ties a point's key may hold an equal twin, so it is expanded first,
// after which every resident twin competes by row id. An entry strictly
// dominated by a point always has a strictly larger key, so the node-first
// tie-break never expands an entry that point ordering would have pruned
// (corner ties aside, which only duplicates produce).
func (h bbsHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	if (h[i].child >= 0) != (h[j].child >= 0) {
		return h[i].child >= 0
	}
	return h[i].rowID < h[j].rowID
}
func (h bbsHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *bbsHeap) Push(x any)   { *h = append(*h, x.(bbsItem)) }
func (h *bbsHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// ComputeBBS runs branch-and-bound skyline over the aggregate R*-tree. It
// expands entries in ascending L1-mindist order, discarding any entry whose
// lower-left corner is dominated by an already-found skyline point; popped
// points whose coordinates are undominated join the skyline progressively.
// I/O is charged through the reader — pass the tree itself for its default
// pool, or a per-query rtree.Session for isolated accounting.
func ComputeBBS(tr rtree.Reader) ([]int, error) {
	return ComputeBBSCtx(context.Background(), tr)
}

// ComputeBBSCtx is ComputeBBS with cancellation, checked before every node
// read (page granularity). A cancelled computation returns the context's
// error; no partial skyline is reported because an incomplete BBS result is
// not a valid skyline subset bound for downstream fingerprinting.
func ComputeBBSCtx(ctx context.Context, tr rtree.Reader) ([]int, error) {
	var sky []int
	err := ComputeBBSProgressiveCtx(ctx, tr, func(rowID int, _ []float64) bool {
		sky = append(sky, rowID)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Ints(sky)
	return sky, nil
}

// ComputeBBSProgressive streams skyline points as BBS discovers them, in
// ascending L1 order — the progressiveness property the paper credits BBS
// with (Section 2). Returning false from fn stops the computation early,
// e.g. after the first k skyline points.
func ComputeBBSProgressive(tr rtree.Reader, fn func(rowID int, p []float64) bool) error {
	return ComputeBBSProgressiveCtx(context.Background(), tr, fn)
}

// ComputeBBSProgressiveCtx is ComputeBBSProgressive with cancellation,
// checked before every node read so a cancelled traversal returns within one
// page quantum.
func ComputeBBSProgressiveCtx(ctx context.Context, tr rtree.Reader, fn func(rowID int, p []float64) bool) error {
	if tr.Len() == 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var skyPts [][]float64
	dominatedBySky := func(p []float64) bool {
		for _, s := range skyPts {
			if geom.Dominates(s, p) || geom.Equal(s, p) {
				return true
			}
		}
		return false
	}
	h := &bbsHeap{}
	root, err := tr.ReadNode(tr.Root())
	if err != nil {
		return err
	}
	pushNode := func(n *rtree.Node) {
		for i := range n.Entries {
			e := &n.Entries[i]
			if n.Leaf {
				heap.Push(h, bbsItem{key: geom.L1(e.Point()), rect: e.Rect, child: -1, rowID: e.RowID})
			} else {
				heap.Push(h, bbsItem{key: e.Rect.MinDistL1(), rect: e.Rect, child: int64(e.Child)})
			}
		}
	}
	pushNode(root)
	for h.Len() > 0 {
		it := heap.Pop(h).(bbsItem)
		if dominatedBySky(it.rect.Lo) {
			continue
		}
		if it.child < 0 {
			skyPts = append(skyPts, it.rect.Lo)
			if !fn(int(it.rowID), it.rect.Lo) {
				return nil
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := tr.ReadNode(pager.PageID(it.child))
		if err != nil {
			return err
		}
		pushNode(n)
	}
	return nil
}
