package rtree

import (
	"fmt"
	"math"
	"sort"

	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// reinsertFraction is the share of an overflowing node's entries removed and
// reinserted by the R* forced-reinsert heuristic (30%).
const reinsertFraction = 0.3

// reinsertItem is an entry waiting to be reinserted at a given level.
type reinsertItem struct {
	entry Entry
	level int // distance from the leaf level (0 = leaf)
}

// Insert adds point p with the given row id using the R* insertion algorithm
// (ChooseSubtree, forced reinsertion, topological split).
func (t *Tree) Insert(p []float64, rowID uint32) error {
	if len(p) != t.dims {
		return fmt.Errorf("rtree: inserting %d-dimensional point into %d-dimensional tree", len(p), t.dims)
	}
	cp := make([]float64, t.dims)
	copy(cp, p)
	e := Entry{Rect: geom.PointRect(cp), Count: 1, RowID: rowID}
	// One forced reinsert per level per insert operation.
	reinserted := make([]bool, t.height+2)
	var pending []reinsertItem
	if err := t.insertTop(e, 0, reinserted, &pending); err != nil {
		return err
	}
	for len(pending) > 0 {
		item := pending[0]
		pending = pending[1:]
		if item.level >= len(reinserted) {
			grown := make([]bool, item.level+2)
			copy(grown, reinserted)
			reinserted = grown
		}
		if err := t.insertTop(item.entry, item.level, reinserted, &pending); err != nil {
			return err
		}
	}
	t.size++
	return nil
}

// insertTop runs one root-to-target insertion and handles a root split.
func (t *Tree) insertTop(e Entry, targetLevel int, reinserted []bool, pending *[]reinsertItem) error {
	split, err := t.insertAt(t.root, t.height-1, targetLevel, e, reinserted, pending)
	if err != nil {
		return err
	}
	if split == nil {
		return nil
	}
	old, err := t.ReadNode(t.root)
	if err != nil {
		return err
	}
	oldEntry := Entry{Rect: old.MBR(), Child: old.ID, Count: old.count()}
	newRoot := &Node{Entries: []Entry{oldEntry, *split}}
	id, err := t.writeNewNode(newRoot)
	if err != nil {
		return err
	}
	t.root = id
	t.height++
	return nil
}

// insertAt descends from the node on page id (at the given level above the
// leaves) towards targetLevel, inserts e there, and unwinds handling
// overflow by forced reinsertion or splitting. It returns the entry for a
// split sibling that the caller must adopt, if any.
func (t *Tree) insertAt(id pager.PageID, level, targetLevel int, e Entry, reinserted []bool, pending *[]reinsertItem) (*Entry, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return nil, err
	}
	if level == targetLevel {
		n.Entries = append(n.Entries, e)
	} else {
		i := chooseSubtreeFunc(n, e.Rect, level == 1)
		split, err := t.insertAt(n.Entries[i].Child, level-1, targetLevel, e, reinserted, pending)
		if err != nil {
			return nil, err
		}
		child, err := t.ReadNode(n.Entries[i].Child)
		if err != nil {
			return nil, err
		}
		n.Entries[i].Rect = child.MBR()
		n.Entries[i].Count = child.count()
		if split != nil {
			n.Entries = append(n.Entries, *split)
		}
	}
	capacity := t.maxInternal
	if n.Leaf {
		capacity = t.maxLeaf
	}
	if len(n.Entries) <= capacity {
		return nil, t.writeNode(n)
	}
	// Overflow treatment: forced reinsert once per level (never at the root),
	// otherwise split.
	if level < t.height-1 && !reinserted[level] {
		reinserted[level] = true
		removed := t.extractReinsertions(n)
		for _, r := range removed {
			*pending = append(*pending, reinsertItem{entry: r, level: level})
		}
		return nil, t.writeNode(n)
	}
	sibling, err := t.splitNode(n)
	if err != nil {
		return nil, err
	}
	sibEntry := Entry{Rect: sibling.MBR(), Child: sibling.ID, Count: sibling.count()}
	return &sibEntry, nil
}

// The insert path reaches the R* heuristics' rectangle arithmetic through
// these variables, so a test can run the same inserts through reference
// versions of them and compare the pages.
var (
	chooseSubtreeFunc = chooseSubtree
	boundaryRectsFunc = boundaryRects
)

// chooseSubtree implements the R* subtree choice: minimal overlap
// enlargement when the children are leaves, minimal area enlargement
// otherwise; ties broken by smaller area.
//
// The overlap test skips work it can prove moot, and picks what the full
// O(M²) test picks. Growing a rect never shrinks its intersection with
// another, also in floating point, so every overlap term is ≥ 0 and a
// candidate's partial sum never falls: once it exceeds the best sum so
// far, the candidate has lost. An entry that contains r has overlap
// enlargement and area enlargement both exactly 0, so when one does, only
// entries of zero area enlargement can win or tie, and only they are
// summed. That second rule also needs every area finite (an infinite one
// makes a term NaN), which the node's bounding area being finite ensures.
func chooseSubtree(n *Node, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		enlarged := geom.NewRect(r.Dims()) // each entry's rect grown to cover r
		enlarged.Set(r)
		contained := false
		for i := range n.Entries {
			enlarged.ExpandRect(n.Entries[i].Rect)
			contained = contained || n.Entries[i].Rect.ContainsRect(r)
		}
		if a := enlarged.Area(); math.IsInf(a, 0) || math.IsNaN(a) {
			contained = false
		}
		first := true
		bestOverlap, bestEnlarge, bestArea := 0.0, 0.0, 0.0
		for i := range n.Entries {
			e := &n.Entries[i]
			enlarged.Set(e.Rect)
			enlarged.ExpandRect(r)
			area := e.Rect.Area()
			enlarge := enlarged.Area() - area
			if contained && enlarge != 0 {
				continue
			}
			overlapDelta := 0.0
			for j := range n.Entries {
				if j == i {
					continue
				}
				overlapDelta += enlarged.OverlapArea(n.Entries[j].Rect) - e.Rect.OverlapArea(n.Entries[j].Rect)
				if !first && overlapDelta > bestOverlap {
					break
				}
			}
			if first || overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
				(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
				best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
				first = false
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

// extractReinsertions removes the reinsertFraction of n's entries whose
// centers lie furthest from the node MBR's center and returns them, furthest
// first (the R* "far reinsert" order).
func (t *Tree) extractReinsertions(n *Node) []Entry {
	count := int(reinsertFraction * float64(len(n.Entries)))
	if count < 1 {
		count = 1
	}
	center := n.MBR().Center(make([]float64, t.dims))
	type distEntry struct {
		dist float64
		idx  int
	}
	ds := make([]distEntry, len(n.Entries))
	ec := make([]float64, t.dims)
	for i := range n.Entries {
		n.Entries[i].Rect.Center(ec)
		d := 0.0
		for j := range ec {
			diff := ec[j] - center[j]
			d += diff * diff
		}
		ds[i] = distEntry{dist: d, idx: i}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].dist > ds[b].dist })
	removed := make([]Entry, 0, count)
	drop := make(map[int]bool, count)
	for _, de := range ds[:count] {
		removed = append(removed, n.Entries[de.idx])
		drop[de.idx] = true
	}
	kept := n.Entries[:0]
	for i := range n.Entries {
		if !drop[i] {
			kept = append(kept, n.Entries[i])
		}
	}
	n.Entries = kept
	return removed
}

// splitNode performs the R* topological split of an overflowing node. The
// original page keeps the first group; the second group moves to a freshly
// allocated sibling, which is returned.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	minFill := t.minInternal
	if n.Leaf {
		minFill = t.minLeaf
	}
	group1, group2 := splitEntries(n.Entries, minFill, t.dims)
	n.Entries = group1
	sibling := &Node{Leaf: n.Leaf, Entries: group2}
	if _, err := t.writeNewNode(sibling); err != nil {
		return nil, err
	}
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	return sibling, nil
}

// splitEntries chooses the R* split axis (minimal margin sum over all
// distributions, considering both lower- and upper-boundary sorts) and the
// distribution on that axis with minimal overlap, breaking ties by minimal
// combined area.
func splitEntries(entries []Entry, minFill, dims int) (group1, group2 []Entry) {
	m := len(entries)
	type ordering struct {
		perm []int
	}
	bestAxisMargin := -1.0
	var bestOrder []int
	for axis := 0; axis < dims; axis++ {
		for _, byHi := range []bool{false, true} {
			perm := make([]int, m)
			for i := range perm {
				perm[i] = i
			}
			a := axis
			if byHi {
				sort.Slice(perm, func(x, y int) bool {
					return entries[perm[x]].Rect.Hi[a] < entries[perm[y]].Rect.Hi[a]
				})
			} else {
				sort.Slice(perm, func(x, y int) bool {
					return entries[perm[x]].Rect.Lo[a] < entries[perm[y]].Rect.Lo[a]
				})
			}
			margin := 0.0
			prefixes, suffixes := boundaryRectsFunc(entries, perm, dims)
			for k := minFill; k <= m-minFill; k++ {
				margin += prefixes[k-1].Margin() + suffixes[k].Margin()
			}
			if bestAxisMargin < 0 || margin < bestAxisMargin {
				bestAxisMargin = margin
				bestOrder = perm
			}
		}
	}
	prefixes, suffixes := boundaryRectsFunc(entries, bestOrder, dims)
	bestK, bestOverlap, bestArea := -1, 0.0, 0.0
	for k := minFill; k <= m-minFill; k++ {
		overlap := prefixes[k-1].OverlapArea(suffixes[k])
		area := prefixes[k-1].Area() + suffixes[k].Area()
		if bestK == -1 || overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	}
	group1 = make([]Entry, 0, bestK)
	group2 = make([]Entry, 0, m-bestK)
	for i, idx := range bestOrder {
		if i < bestK {
			group1 = append(group1, entries[idx])
		} else {
			group2 = append(group2, entries[idx])
		}
	}
	return group1, group2
}

// boundaryRects returns, for a permutation of entries, the MBRs of every
// prefix (prefixes[i] covers perm[0..i]) and every suffix (suffixes[i]
// covers perm[i..]). All 2m + 1 rects are cut from one backing array, and
// each is its predecessor grown by one entry.
func boundaryRects(entries []Entry, perm []int, dims int) (prefixes, suffixes []geom.Rect) {
	m := len(perm)
	rects := make([]geom.Rect, 2*m+1)
	vals := make([]float64, 2*dims*len(rects))
	for i := range rects {
		lo := vals[2*i*dims : (2*i+1)*dims : (2*i+1)*dims]
		hi := vals[(2*i+1)*dims : (2*i+2)*dims : (2*i+2)*dims]
		rects[i] = geom.Rect{Lo: lo, Hi: hi}
	}
	prefixes, suffixes = rects[:m:m], rects[m:]
	suffixes[m].Reset()
	prev := suffixes[m]
	for i := 0; i < m; i++ {
		prefixes[i].Set(prev)
		prefixes[i].ExpandRect(entries[perm[i]].Rect)
		prev = prefixes[i]
	}
	for i := m - 1; i >= 0; i-- {
		suffixes[i].Set(suffixes[i+1])
		suffixes[i].ExpandRect(entries[perm[i]].Rect)
	}
	return prefixes, suffixes
}
