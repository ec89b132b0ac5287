package skyline

import (
	"math/rand"
	"sort"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/pager"
)

// StreamResult is the output of the randomized streaming skyline.
type StreamResult struct {
	// Sky holds the confirmed skyline indexes found so far, ascending.
	Sky []int
	// Complete reports whether Sky is provably the whole skyline (every
	// point was dominated by or equal to a confirmed skyline point, or is
	// itself confirmed).
	Complete bool
	// Passes is the number of sequential passes performed.
	Passes int
	// IO charges each pass as a sequential scan.
	IO pager.Stats
}

// ComputeStreamRAND is a randomized multi-pass streaming skyline in the
// spirit of Das Sarma et al. (cited as [11] in Section 2): the index-free,
// bounded-memory alternative the paper names for the streaming case, which
// "performs multiple passes over the data returning approximate results".
//
// Each round costs three sequential passes and confirms up to window
// skyline points:
//
//	sample: reservoir-sample `window` candidates among points not yet
//	        dominated by a confirmed skyline point;
//	climb:  replace each candidate by any streamed point dominating it, so
//	        candidates move toward the skyline;
//	verify: candidates that no streamed point dominates are confirmed.
//
// The result is always a subset of the true skyline (the verify pass admits
// no false positives); Complete reports whether the uncovered frontier was
// exhausted, in which case the result is the exact skyline. Memory is
// O(window + |skyline found|); runs are deterministic per seed.
func ComputeStreamRAND(ds *data.Dataset, window, maxPasses int, seed int64) *StreamResult {
	if window < 1 {
		window = 1
	}
	r := rand.New(rand.NewSource(seed))
	counter := pager.NewScanCounter(ds.Dims())
	res := &StreamResult{}
	n := ds.Len()
	confirmed := make([]int, 0, 64)
	coveredBy := func(p []float64) bool {
		for _, s := range confirmed {
			q := ds.Point(s)
			if geom.Dominates(q, p) || geom.Equal(q, p) {
				return true
			}
		}
		return false
	}
	for res.Passes < maxPasses {
		// Sample pass: reservoir over the uncovered frontier.
		res.Passes++
		cand := make([]int, 0, window)
		seen := 0
		for i := 0; i < n; i++ {
			counter.Touch(i)
			if ds.Deleted(i) || coveredBy(ds.Point(i)) {
				continue
			}
			seen++
			if len(cand) < window {
				cand = append(cand, i)
			} else if j := r.Intn(seen); j < window {
				cand[j] = i
			}
		}
		if seen == 0 {
			res.Complete = true
			break
		}
		if res.Passes >= maxPasses {
			break
		}
		// Climb pass: candidates follow dominators toward the skyline.
		res.Passes++
		for i := 0; i < n; i++ {
			counter.Touch(i)
			if ds.Deleted(i) {
				continue
			}
			p := ds.Point(i)
			for c := range cand {
				if geom.Dominates(p, ds.Point(cand[c])) {
					cand[c] = i
				}
			}
		}
		if res.Passes >= maxPasses {
			break
		}
		// Verify pass: confirm candidates nothing dominates (first index
		// wins among duplicates, matching the other algorithms).
		res.Passes++
		alive := make([]bool, len(cand))
		for i := range alive {
			alive[i] = true
		}
		for i := 0; i < n; i++ {
			counter.Touch(i)
			if ds.Deleted(i) {
				continue
			}
			p := ds.Point(i)
			for c := range cand {
				if !alive[c] {
					continue
				}
				cp := ds.Point(cand[c])
				if geom.Dominates(p, cp) || (geom.Equal(p, cp) && i < cand[c]) {
					alive[c] = false
				}
			}
		}
		for c := range cand {
			if alive[c] {
				confirmed = append(confirmed, cand[c])
			}
		}
		confirmed = dedupInts(confirmed)
	}
	sort.Ints(confirmed)
	res.Sky = confirmed
	res.IO = counter.Stats()
	return res
}

func dedupInts(a []int) []int {
	seen := make(map[int]bool, len(a))
	out := a[:0]
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
