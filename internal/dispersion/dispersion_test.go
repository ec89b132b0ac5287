package dispersion

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// euclid builds a DistFunc over 2-D points.
func euclid(pts [][2]float64) DistFunc {
	return func(i, j int) float64 {
		dx := pts[i][0] - pts[j][0]
		dy := pts[i][1] - pts[j][1]
		return math.Sqrt(dx*dx + dy*dy)
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxMin.String() != "max-min" || MaxSum.String() != "max-sum" {
		t.Error("Objective.String mismatch")
	}
}

func TestSelectDiverseSetValidation(t *testing.T) {
	d := euclid([][2]float64{{0, 0}, {1, 1}})
	for name, sel := range map[string]func(context.Context, int, int, DistFunc, []float64) ([]int, error){
		"lazy":  SelectDiverseSetCtx,
		"eager": SelectDiverseSetEagerCtx,
	} {
		ctx := context.Background()
		if _, err := sel(ctx, 2, 0, d, nil); err == nil {
			t.Errorf("%s: expected error for k=0", name)
		}
		if _, err := sel(ctx, 2, 3, d, nil); err == nil {
			t.Errorf("%s: expected error for k>m", name)
		}
		if _, err := sel(ctx, 2, 2, d, []float64{1}); err == nil {
			t.Errorf("%s: expected error for short score vector", name)
		}
	}
}

func TestSelectDiverseSetSeedsMaxScore(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	score := []float64{1, 9, 3, 2}
	got, err := SelectDiverseSet(4, 1, euclid(pts), score)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("seed = %d, want max-score item 1", got[0])
	}
	// Without scores the seed is item 0.
	got, _ = SelectDiverseSet(4, 1, euclid(pts), nil)
	if got[0] != 0 {
		t.Errorf("unscored seed = %d, want 0", got[0])
	}
}

func TestSelectDiverseSetLine(t *testing.T) {
	// Points on a line at 0, 1, 9, 10. Seed = max score at 0; the farthest
	// point is 10; then 9 vs 1: min-dist of 1 is 1, of 9 is 1 — tie broken by
	// score, which favors 9.
	pts := [][2]float64{{0, 0}, {1, 0}, {9, 0}, {10, 0}}
	score := []float64{5, 1, 2, 1}
	got, err := SelectDiverseSet(4, 3, euclid(pts), score)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selection = %v, want %v", got, want)
		}
	}
}

func TestSelectDiverseSetTieBreakByScore(t *testing.T) {
	// Equidistant candidates; higher score must win.
	pts := [][2]float64{{0, 0}, {2, 0}, {1, 1}, {1, -1}}
	score := []float64{0, 0, 1, 5}
	got, err := SelectDiverseSet(4, 3, euclid(pts), score)
	if err != nil {
		t.Fatal(err)
	}
	// Seed: item 3 (max score). Farthest from (1,-1): (0,0) d=sqrt(2)? No:
	// distances from 3: 0->sqrt(2), 1->sqrt(2), 2->2. So item 2 second.
	if got[0] != 3 || got[1] != 2 {
		t.Fatalf("selection = %v", got)
	}
	// Third: 0 and 1 both have minDist sqrt(2); equal scores 0,0 — first wins.
	if got[2] != 0 {
		t.Fatalf("selection = %v", got)
	}
}

func TestMinSumPairwise(t *testing.T) {
	pts := [][2]float64{{0, 0}, {3, 0}, {0, 4}}
	d := euclid(pts)
	if got := MinPairwise([]int{0, 1, 2}, d); got != 3 {
		t.Errorf("MinPairwise = %v, want 3", got)
	}
	if got := SumPairwise([]int{0, 1, 2}, d); got != 12 {
		t.Errorf("SumPairwise = %v, want 12", got)
	}
	if !math.IsInf(MinPairwise([]int{0}, d), 1) {
		t.Error("singleton MinPairwise must be +inf")
	}
	if SumPairwise([]int{0}, d) != 0 {
		t.Error("singleton SumPairwise must be 0")
	}
}

func TestBruteForceSmall(t *testing.T) {
	// 4 points on a line; best 2-MMDP pair is the endpoints.
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}, {10, 0}}
	d := euclid(pts)
	set, val, err := BruteForce(4, 2, d, MaxMin)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(set)
	if set[0] != 0 || set[1] != 3 || val != 10 {
		t.Errorf("BruteForce = %v (%v)", set, val)
	}
	if _, _, err := BruteForce(4, 0, d, MaxMin); err == nil {
		t.Error("expected error for k=0")
	}
	if _, _, err := BruteForce(4, 5, d, MaxMin); err == nil {
		t.Error("expected error for k>m")
	}
}

// TestBruteForceMSDPvsMMDP reproduces the Figure 2 phenomenon: on a
// configuration with two close points and two spread ones, max-sum keeps a
// close pair that max-min avoids.
func TestBruteForceMSDPvsMMDP(t *testing.T) {
	// Points on a line at 0, 1, 5, 9, 10 with k = 3: max-sum tolerates the
	// 1-unit pair (compensated by two long edges, sum 20), while max-min
	// uniquely picks {0, 5, 10} with minimum gap 5 — the Figure 2 contrast.
	pts := [][2]float64{{0, 0}, {1, 0}, {5, 0}, {9, 0}, {10, 0}}
	d := euclid(pts)
	msdp, _, err := BruteForce(5, 3, d, MaxSum)
	if err != nil {
		t.Fatal(err)
	}
	mmdp, _, err := BruteForce(5, 3, d, MaxMin)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(msdp)
	sort.Ints(mmdp)
	if got, want := MinPairwise(mmdp, d), MinPairwise(msdp, d); got <= want {
		t.Errorf("MMDP min distance %v not larger than MSDP's %v", got, want)
	}
	if got, want := SumPairwise(msdp, d), SumPairwise(mmdp, d); got < want {
		t.Errorf("MSDP sum %v smaller than MMDP's %v", got, want)
	}
}

// TestGreedy2Approximation: the greedy result is within a factor 2 of the
// brute-force optimum on random metric instances — Lemma 4.
func TestGreedy2Approximation(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		m := 6 + r.Intn(6)
		k := 2 + r.Intn(3)
		pts := make([][2]float64, m)
		for i := range pts {
			pts[i] = [2]float64{r.Float64() * 10, r.Float64() * 10}
		}
		d := euclid(pts)
		_, opt, err := BruteForce(m, k, d, MaxMin)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := SelectDiverseSet(m, k, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := MinPairwise(greedy, d)
		if got < opt/2-1e-9 {
			t.Fatalf("trial %d: greedy %v < OPT/2 = %v", trial, got, opt/2)
		}
	}
}

// TestGreedyJaccardMetric runs the approximation check under a Jaccard-like
// distance over random sets, the metric actually used by the framework.
func TestGreedy2ApproximationJaccard(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m := 6 + r.Intn(4)
		sets := make([]map[int]bool, m)
		for i := range sets {
			sets[i] = map[int]bool{}
			for j := 0; j < 20+r.Intn(30); j++ {
				sets[i][r.Intn(60)] = true
			}
		}
		d := func(i, j int) float64 {
			inter := 0
			for x := range sets[i] {
				if sets[j][x] {
					inter++
				}
			}
			union := len(sets[i]) + len(sets[j]) - inter
			if union == 0 {
				return 0
			}
			return 1 - float64(inter)/float64(union)
		}
		k := 3
		_, opt, err := BruteForce(m, k, d, MaxMin)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := SelectDiverseSet(m, k, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := MinPairwise(greedy, d); got < opt/2-1e-9 {
			t.Fatalf("trial %d: greedy %v < OPT/2 = %v", trial, got, opt/2)
		}
	}
}

func TestSelectDiverseSetFull(t *testing.T) {
	// k = m returns all items exactly once.
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}}
	got, err := SelectDiverseSet(3, 3, euclid(pts), nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("selection = %v", got)
		}
	}
}

func TestSelectionOrderIsSelectionOrder(t *testing.T) {
	// The first element of the result must be the seed even when it is not
	// item 0, so callers can prefix-truncate for smaller k.
	pts := [][2]float64{{0, 0}, {5, 5}, {9, 0}}
	score := []float64{0, 7, 0}
	got, _ := SelectDiverseSet(3, 3, euclid(pts), score)
	if got[0] != 1 {
		t.Errorf("selection order broken: %v", got)
	}
}

func BenchmarkSelectDiverseSet(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := 1000
	pts := make([][2]float64, m)
	for i := range pts {
		pts[i] = [2]float64{r.Float64(), r.Float64()}
	}
	d := euclid(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectDiverseSet(m, 10, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForceK2(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := 100
	pts := make([][2]float64, m)
	for i := range pts {
		pts[i] = [2]float64{r.Float64(), r.Float64()}
	}
	d := euclid(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BruteForce(m, 2, d, MaxMin); err != nil {
			b.Fatal(err)
		}
	}
}
