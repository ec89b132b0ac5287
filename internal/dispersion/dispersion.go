// Package dispersion implements the k-dispersion solvers of SkyDiver's
// selection phase (Section 4.2): the greedy 2-approximation heuristic
// SelectDiverseSet (Figure 6) over an arbitrary metric oracle, plus exact
// brute-force solvers for the max-min (k-MMDP) and max-sum (k-MSDP)
// dispersion problems used by the Brute-Force baseline and the Figure 2
// illustration.
package dispersion

import (
	"context"
	"fmt"
	"math"
)

// cancelCheckStride bounds how many distance evaluations may pass between
// two context checks, so cancellation latency stays below one greedy round
// even on huge skylines.
const cancelCheckStride = 4096

// DistFunc is a pairwise distance oracle over items 0..m-1. SelectDiverseSet
// requires it to be a metric (the triangle inequality underlies the
// 2-approximation guarantee); the callers plug in the estimated Jaccard
// distance of MinHash signatures, the Hamming distance of LSH bit vectors,
// or the exact Jaccard distance via R-tree range counting.
type DistFunc func(i, j int) float64

// Objective selects the dispersion objective.
type Objective int

// Dispersion objectives.
const (
	// MaxMin maximizes the minimum pairwise distance (k-MMDP). SkyDiver uses
	// it because greedy gives a 2-approximation (versus 4 for max-sum).
	MaxMin Objective = iota
	// MaxSum maximizes the sum of pairwise distances (k-MSDP).
	MaxSum
)

// String names the objective.
func (o Objective) String() string {
	if o == MaxSum {
		return "max-sum"
	}
	return "max-min"
}

// SelectDiverseSet is the greedy heuristic of Figure 6. It seeds the result
// with the item of maximum score (the skyline point with the highest
// domination score), then repeatedly adds the item maximizing its minimum
// distance to the chosen set, breaking ties by score. It returns the chosen
// item indexes in selection order.
//
// The oracle is invoked at most once per (item, pick) pair, so O(k·m) times
// in the worst case and usually far fewer (see SelectDiverseSetCtx). The
// result is a 2-approximation of the optimal k-MMDP value (Lemma 4).
func SelectDiverseSet(m, k int, dist DistFunc, score []float64) ([]int, error) {
	return SelectDiverseSetCtx(context.Background(), m, k, dist, score)
}

// SelectDiverseSetCtx is SelectDiverseSet with cancellation. The greedy loop
// is anytime: every completed round extends a valid diverse prefix, so on
// cancellation the items selected so far are returned together with the
// context's error — callers keep the partial answer instead of losing the
// whole run. The context is checked at least once per greedy round and every
// cancelCheckStride distance evaluations within a round.
//
// Evaluation is lazy, by the argument of CELF (Leskovec et al., KDD 2007): an
// item's minimum distance to the chosen set can only shrink as the set grows,
// so the last minimum computed for it bounds its current one from above.
// Each round first brings the item with the best bound up to date, then
// refreshes only the items whose bound still ranks before the best exact
// value so far, each only until its bound falls behind. An item left behind
// cannot win the round, so for NaN-free distances and scores the picks and
// their order are exactly those of SelectDiverseSetEagerCtx, with each
// (item, pick) distance evaluated at most once and never more often in
// total.
func SelectDiverseSetCtx(ctx context.Context, m, k int, dist DistFunc, score []float64) ([]int, error) {
	if err := validateGreedy(m, k, score); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return []int{}, err
	}
	selected := make([]int, 0, k)
	selected = append(selected, maxScore(m, score))
	// ub[i] is item i's minimum distance to selected[:seen[i]] (+Inf before
	// the first), an upper bound of its distance to the chosen set that is
	// exact when seen[i] == len(selected). Chosen items have seen = -1.
	ub := make([]float64, m)
	seen := make([]int32, m)
	for i := range ub {
		ub[i] = math.Inf(1)
	}
	seen[selected[0]] = -1
	evals := 0
	best, bd, bs := -1, 0.0, 0.0 // the round's best item, its distance and score
	// refresh folds the picks item i has not seen into its bound, in
	// selection order. With cutoff it stops once the bound no longer
	// outranks the round's best: the item cannot win this round, and the
	// bound stays valid for later ones.
	refresh := func(i int, cutoff bool) error {
		s := int(seen[i])
		for s < len(selected) {
			if d := dist(i, selected[s]); d < ub[i] {
				ub[i] = d
			}
			s++
			if evals++; evals%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if cutoff && !outranks(ub[i], scoreAt(score, i), i, bd, bs, best) {
				break
			}
		}
		seen[i] = int32(s)
		return nil
	}
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return selected, err
		}
		// Pass 1: the best bound, brought up to date.
		best = -1
		for i := 0; i < m; i++ {
			if seen[i] >= 0 && (best == -1 || outranks(ub[i], scoreAt(score, i), i, ub[best], scoreAt(score, best), best)) {
				best = i
			}
		}
		if err := refresh(best, false); err != nil {
			return selected, err
		}
		// Pass 2: only an item whose bound still ranks before the best exact
		// value can win; refresh it and take it if it still does.
		bd, bs = ub[best], scoreAt(score, best)
		for i := 0; i < m; i++ {
			if seen[i] < 0 || i == best || !outranks(ub[i], scoreAt(score, i), i, bd, bs, best) {
				continue
			}
			if err := refresh(i, true); err != nil {
				return selected, err
			}
			if outranks(ub[i], scoreAt(score, i), i, bd, bs, best) {
				best, bd, bs = i, ub[i], scoreAt(score, i)
			}
		}
		selected = append(selected, best)
		seen[best] = -1
	}
	return selected, nil
}

// SelectDiverseSetEagerCtx is the greedy loop of Figure 6 as printed: after
// every pick it re-evaluates the distance from every remaining item to the
// newest pick, about k·m oracle calls in a fixed order. It returns the same
// selection as SelectDiverseSetCtx. Simple-Greedy keeps it because the paper
// charges that baseline exactly this sequence of exact range-count probes;
// the tests use it as the oracle for the lazy loop.
func SelectDiverseSetEagerCtx(ctx context.Context, m, k int, dist DistFunc, score []float64) ([]int, error) {
	if err := validateGreedy(m, k, score); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return []int{}, err
	}
	first := maxScore(m, score)
	selected := make([]int, 0, k)
	selected = append(selected, first)
	inSet := make([]bool, m)
	inSet[first] = true
	minDist := make([]float64, m)
	evals := 0
	for i := 0; i < m; i++ {
		if !inSet[i] {
			minDist[i] = dist(i, first)
			if evals++; evals%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return selected, err
				}
			}
		}
	}
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return selected, err
		}
		best := -1
		for i := 0; i < m; i++ {
			if !inSet[i] && (best == -1 || outranks(minDist[i], scoreAt(score, i), i, minDist[best], scoreAt(score, best), best)) {
				best = i
			}
		}
		selected = append(selected, best)
		inSet[best] = true
		for i := 0; i < m; i++ {
			if !inSet[i] {
				if d := dist(i, best); d < minDist[i] {
					minDist[i] = d
				}
				if evals++; evals%cancelCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return selected, err
					}
				}
			}
		}
	}
	return selected, nil
}

// validateGreedy checks the arguments of the greedy selection loops.
func validateGreedy(m, k int, score []float64) error {
	if k < 1 {
		return fmt.Errorf("dispersion: non-positive k %d", k)
	}
	if k > m {
		return fmt.Errorf("dispersion: k %d exceeds item count %d", k, m)
	}
	if score != nil && len(score) != m {
		return fmt.Errorf("dispersion: score vector has %d entries for %d items", len(score), m)
	}
	return nil
}

// scoreAt is item i's score in the greedy loops: score[i], or 0 for every
// item when score is nil.
func scoreAt(score []float64, i int) float64 {
	if score == nil {
		return 0
	}
	return score[i]
}

// maxScore returns the greedy seed (Figure 6, line 3): the item of maximum
// score, the lowest index among ties.
func maxScore(m int, score []float64) int {
	first := 0
	for i := 1; i < m; i++ {
		if scoreAt(score, i) > scoreAt(score, first) {
			first = i
		}
	}
	return first
}

// outranks reports whether item i with distance d and score s ranks before
// item b with bd and bs under the greedy scan's rule: larger distance, then
// larger score, then lower index.
func outranks(d, s float64, i int, bd, bs float64, b int) bool {
	return d > bd || d == bd && (s > bs || s == bs && i < b)
}

// SelectDiverseSetFarthestSeed is the classic 2-approximation heuristic of
// Ravi, Rosenkrantz and Tayi (cited as [28]): it seeds the result with the
// two points of maximum pairwise distance — an O(m²) scan the paper's
// variant avoids — then grows it greedily like SelectDiverseSet. It exists
// for the seeding ablation; SkyDiver itself uses SelectDiverseSet.
func SelectDiverseSetFarthestSeed(m, k int, dist DistFunc) ([]int, error) {
	return SelectDiverseSetFarthestSeedCtx(context.Background(), m, k, dist)
}

// SelectDiverseSetFarthestSeedCtx is SelectDiverseSetFarthestSeed with
// cancellation, checked every cancelCheckStride distance evaluations —
// including inside the O(m²) farthest-pair seeding scan, which on a large
// skyline dwarfs the greedy rounds and previously could not be interrupted
// at all. Cancellation during seeding returns an empty selection with the
// context's error; after seeding, the prefix selected so far (anytime, like
// SelectDiverseSetCtx).
func SelectDiverseSetFarthestSeedCtx(ctx context.Context, m, k int, dist DistFunc) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("dispersion: non-positive k %d", k)
	}
	if k > m {
		return nil, fmt.Errorf("dispersion: k %d exceeds item count %d", k, m)
	}
	if err := ctx.Err(); err != nil {
		return []int{}, err
	}
	if k == 1 || m == 1 {
		return []int{0}, nil
	}
	bi, bj := 0, 1
	bd := math.Inf(-1)
	evals := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := dist(i, j); d > bd {
				bi, bj, bd = i, j, d
			}
			if evals++; evals%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return []int{}, err
				}
			}
		}
	}
	selected := []int{bi, bj}
	inSet := make([]bool, m)
	inSet[bi], inSet[bj] = true, true
	minDist := make([]float64, m)
	for i := 0; i < m; i++ {
		if !inSet[i] {
			minDist[i] = math.Min(dist(i, bi), dist(i, bj))
			if evals += 2; evals%cancelCheckStride < 2 {
				if err := ctx.Err(); err != nil {
					return selected, err
				}
			}
		}
	}
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return selected, err
		}
		best := -1
		for i := 0; i < m; i++ {
			if inSet[i] {
				continue
			}
			if best == -1 || minDist[i] > minDist[best] {
				best = i
			}
		}
		selected = append(selected, best)
		inSet[best] = true
		for i := 0; i < m; i++ {
			if !inSet[i] {
				if d := dist(i, best); d < minDist[i] {
					minDist[i] = d
				}
				if evals++; evals%cancelCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return selected, err
					}
				}
			}
		}
	}
	return selected, nil
}

// MinPairwise returns the minimum pairwise distance within the set — the
// k-MMDP objective value and the "diversity" quality metric of Figures 12
// and 13.
func MinPairwise(set []int, dist DistFunc) float64 {
	if len(set) < 2 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if d := dist(set[i], set[j]); d < best {
				best = d
			}
		}
	}
	return best
}

// SumPairwise returns the sum of pairwise distances within the set — the
// k-MSDP objective value.
func SumPairwise(set []int, dist DistFunc) float64 {
	total := 0.0
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			total += dist(set[i], set[j])
		}
	}
	return total
}

// BruteForce exhaustively enumerates all C(m, k) subsets and returns the one
// optimizing the chosen objective, together with its objective value. This
// is the Brute-Force baseline of Section 3.2; it is exponential in k and
// only usable for small skylines.
func BruteForce(m, k int, dist DistFunc, obj Objective) ([]int, float64, error) {
	return BruteForceCtx(context.Background(), m, k, dist, obj)
}

// BruteForceCtx is BruteForce with cancellation, checked every
// cancelCheckStride evaluated subsets. On cancellation it returns the best
// subset found so far (anytime, but without the exhaustive-optimality
// guarantee) together with the context's error.
func BruteForceCtx(ctx context.Context, m, k int, dist DistFunc, obj Objective) ([]int, float64, error) {
	if k < 1 || k > m {
		return nil, 0, fmt.Errorf("dispersion: invalid k %d for %d items", k, m)
	}
	objective := MinPairwise
	if obj == MaxSum {
		objective = SumPairwise
	}
	var best []int
	bestVal := math.Inf(-1)
	subset := make([]int, k)
	evaluated := 0
	var ctxErr error
	var recurse func(start, depth int)
	recurse = func(start, depth int) {
		if ctxErr != nil {
			return
		}
		if depth == k {
			if v := objective(subset, dist); v > bestVal {
				bestVal = v
				best = append(best[:0], subset...)
			}
			if evaluated++; evaluated%cancelCheckStride == 0 {
				ctxErr = ctx.Err()
			}
			return
		}
		// Leave room for the remaining k-depth-1 items.
		for i := start; i <= m-(k-depth); i++ {
			subset[depth] = i
			recurse(i+1, depth+1)
		}
	}
	recurse(0, 0)
	out := make([]int, len(best))
	copy(out, best)
	return out, bestVal, ctxErr
}
