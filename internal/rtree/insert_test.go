package rtree

import (
	"bytes"
	"math/rand"
	"testing"

	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// refChooseSubtree is the subtree choice as first written, with one cloned
// rect per candidate entry: the reference the scratch-rect version is
// pinned to.
func refChooseSubtree(n *Node, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnlarge, bestArea := 0.0, 0.0, 0.0
		for i := range n.Entries {
			e := &n.Entries[i]
			enlarged := e.Rect.Clone()
			enlarged.ExpandRect(r)
			overlapDelta := 0.0
			for j := range n.Entries {
				if j == i {
					continue
				}
				overlapDelta += enlarged.OverlapArea(n.Entries[j].Rect) - e.Rect.OverlapArea(n.Entries[j].Rect)
			}
			area := e.Rect.Area()
			enlarge := enlarged.Area() - area
			if i == 0 || overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
				(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
				best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
			}
		}
		return best
	}
	bestEnlarge, bestArea := 0.0, 0.0
	for i := range n.Entries {
		e := &n.Entries[i]
		area := e.Rect.Area()
		enlarge := e.Rect.EnlargedArea(r) - area
		if i == 0 || enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return best
}

// refBoundaryRects is the split's prefix and suffix MBRs as first written,
// one cloned rect each: the reference the shared-array version is pinned
// to.
func refBoundaryRects(entries []Entry, perm []int, dims int) (prefixes, suffixes []geom.Rect) {
	m := len(perm)
	prefixes = make([]geom.Rect, m)
	suffixes = make([]geom.Rect, m+1)
	run := geom.NewRect(dims)
	for i := 0; i < m; i++ {
		run.ExpandRect(entries[perm[i]].Rect)
		prefixes[i] = run.Clone()
	}
	run = geom.NewRect(dims)
	suffixes[m] = run.Clone()
	for i := m - 1; i >= 0; i-- {
		run.ExpandRect(entries[perm[i]].Rect)
		suffixes[i] = run.Clone()
	}
	return prefixes, suffixes
}

// TestInsertHeuristicsMatchReference runs one fixed insert sequence through
// the insert path's heuristics and through the Clone-based references, and
// requires every encoded page, the root and the height to agree. Eight
// dimensions keep the fanouts small (about 60 per leaf, 30 per internal
// node), so 3,000 points grow the tree to three levels: a leaf split below a
// non-root node always follows a forced reinsert at its level in the same
// insert, so both R* overflow treatments run. Half the points sit on a
// coarse grid, so enlargements and areas tie and the tie-breaks run too.
func TestInsertHeuristicsMatchReference(t *testing.T) {
	const dims, n = 8, 3000
	build := func() *Tree {
		tr, err := New(dims)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		p := make([]float64, dims)
		for i := 0; i < n; i++ {
			for j := range p {
				if i%2 == 0 {
					p[j] = r.Float64()
				} else {
					p[j] = float64(r.Intn(8)) / 8
				}
			}
			if err := tr.Insert(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	got := build()
	chooseSubtreeFunc, boundaryRectsFunc = refChooseSubtree, refBoundaryRects
	defer func() { chooseSubtreeFunc, boundaryRectsFunc = chooseSubtree, boundaryRects }()
	want := build()

	if got.Height() < 3 {
		t.Fatalf("height %d: the sequence never split an internal node", got.Height())
	}
	if got.Root() != want.Root() || got.Height() != want.Height() || got.NumPages() != want.NumPages() {
		t.Fatalf("root %d height %d over %d pages, reference root %d height %d over %d pages",
			got.Root(), got.Height(), got.NumPages(), want.Root(), want.Height(), want.NumPages())
	}
	for id := 0; id < got.NumPages(); id++ {
		a, err := got.Store().ReadPage(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.Store().ReadPage(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs from the reference", id)
		}
	}
}
