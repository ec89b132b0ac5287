package skyline

import (
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// ExternalResult is the output of the bounded-memory BNL run.
type ExternalResult struct {
	// Sky holds the skyline indexes, ascending.
	Sky []int
	// Passes is the number of passes over (progressively shrinking)
	// overflow data, including the first pass over the input.
	Passes int
	// IO charges the input scan plus every overflow write and re-read.
	IO pager.Stats
}

// ComputeBNLExternal runs the original bounded-memory block-nested-loops
// skyline of Börzsönyi et al.: a self-organizing window of at most
// windowCap points is compared against the stream; undominated points that
// do not fit spill to an overflow file and are resolved in later passes.
//
// Emission follows the classic timestamp rule: a window point may be output
// at the end of a pass only if nothing spilled to the overflow file before
// it entered the window — otherwise some spilled point was never compared
// against it and the point must be carried into the next pass. Every pass
// either resolves its whole input or emits at least a full window of
// skyline points, so the number of passes is bounded. Overflow writes and
// re-reads are charged through a sequential counter, reproducing the I/O
// regime the paper alludes to when no index exists.
func ComputeBNLExternal(ds *data.Dataset, windowCap int) *ExternalResult {
	if windowCap < 1 {
		windowCap = 1
	}
	res := &ExternalResult{}
	counter := pager.NewScanCounter(ds.Dims())
	// input holds dataset indexes still unresolved; starts as the live rows
	// of the file (tombstoned rows are resolved by definition).
	input := make([]int, 0, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		if !ds.Deleted(i) {
			input = append(input, i)
		}
	}
	type winEntry struct {
		idx int
		ts  int // overflow size when the point entered the window
	}
	var sky []int
	for len(input) > 0 {
		res.Passes++
		window := make([]winEntry, 0, windowCap)
		var overflow []int
		for pos, i := range input {
			counter.Touch(pos)
			p := ds.Point(i)
			dominated := false
			for _, w := range window {
				q := ds.Point(w.idx)
				if geom.Dominates(q, p) || (geom.Equal(q, p) && w.idx < i) {
					dominated = true
					break
				}
			}
			// Emitted skyline points are final; checking against them keeps
			// correctness across passes without consuming window budget.
			if !dominated {
				for _, s := range sky {
					q := ds.Point(s)
					if geom.Dominates(q, p) || (geom.Equal(q, p) && s < i) {
						dominated = true
						break
					}
				}
			}
			if dominated {
				continue
			}
			keep := window[:0]
			for _, w := range window {
				if !geom.Dominates(p, ds.Point(w.idx)) {
					keep = append(keep, w)
				}
			}
			window = keep
			if len(window) < windowCap {
				window = append(window, winEntry{idx: i, ts: len(overflow)})
			} else {
				// Window full: spill to the overflow file (one write).
				counter.Touch(len(overflow))
				overflow = append(overflow, i)
			}
		}
		// Emit window points inserted before any spill (they met every
		// unresolved point); carry the rest into the next pass's input.
		next := overflow
		for _, w := range window {
			if w.ts == 0 {
				sky = append(sky, w.idx)
			} else {
				next = append(next, w.idx)
			}
		}
		input = next
	}
	sort.Ints(sky)
	res.Sky = sky
	res.IO = counter.Stats()
	return res
}
