package dispersion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skydiver/internal/minhash"
)

// lazy_test.go pins the lazy greedy loop (SelectDiverseSetCtx) to the eager
// loop of Figure 6 (SelectDiverseSetEagerCtx): same items, same order, and
// never more distance evaluations.

// synthDist builds a deterministic pseudo-random symmetric metric-ish
// distance over m items with deliberately many ties (values quantized to
// 1/8ths) so the tie-break rules are actually exercised.
func synthDist(m int, seed int64) DistFunc {
	r := rand.New(rand.NewSource(seed))
	vals := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := float64(r.Intn(8)+1) / 8
			vals[i*m+j] = d
			vals[j*m+i] = d
		}
	}
	return func(i, j int) float64 { return vals[i*m+j] }
}

// synthScore builds scores with repeated values, again to stress ties.
func synthScore(m int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	s := make([]float64, m)
	for i := range s {
		s[i] = float64(r.Intn(5))
	}
	return s
}

// counted wraps dist with a call counter.
func counted(dist DistFunc, calls *int) DistFunc {
	return func(i, j int) float64 {
		*calls++
		return dist(i, j)
	}
}

// checkMatchesEager runs both loops and fails unless they pick the same
// items in the same order, with the lazy loop making no more evaluations.
func checkMatchesEager(t *testing.T, m, k int, dist DistFunc, score []float64) {
	t.Helper()
	var eagerCalls, lazyCalls int
	want, err := SelectDiverseSetEagerCtx(context.Background(), m, k, counted(dist, &eagerCalls), score)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectDiverseSetCtx(context.Background(), m, k, counted(dist, &lazyCalls), score)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("m=%d k=%d scores=%v: lazy picked %v, eager %v", m, k, score != nil, got, want)
	}
	if lazyCalls > eagerCalls {
		t.Fatalf("m=%d k=%d scores=%v: lazy made %d evaluations, eager %d", m, k, score != nil, lazyCalls, eagerCalls)
	}
}

// TestSelectionMatchesEager is the golden pin of the lazy loop over a grid
// of sizes and k values, with and without scores.
func TestSelectionMatchesEager(t *testing.T) {
	for _, m := range []int{1, 2, 17, 100, 2048, 3001} {
		dist := synthDist(m, int64(m))
		score := synthScore(m, int64(m)+1)
		for _, k := range []int{1, 2, 5, 10, m} {
			if k > m {
				continue
			}
			checkMatchesEager(t, m, k, dist, score)
			checkMatchesEager(t, m, k, dist, nil)
		}
	}
}

// TestSelectionCancelled checks the anytime contract: a run cancelled from
// inside the distance oracle returns a strict prefix of the full selection
// together with the context error, within one check stride of the cancel.
func TestSelectionCancelled(t *testing.T) {
	m := 4096
	dist := synthDist(m, 3)
	want, err := SelectDiverseSet(m, 8, dist, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelAt := m // the first evaluation of the second round
	calls := 0
	got, err := SelectDiverseSetCtx(ctx, m, 8, func(i, j int) float64 {
		if calls++; calls == cancelAt {
			cancel()
		}
		return dist(i, j)
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= 8 {
		t.Fatalf("cancelled run returned a full selection of %d items", len(got))
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("partial prefix diverges at %d: got %v, want prefix of %v", i, got, want)
		}
	}
	if calls > cancelAt+cancelCheckStride {
		t.Fatalf("cancellation latency: %d evaluations after cancel at %d", calls, cancelAt)
	}
}

// FuzzSelectMatchesEager decodes an item count, k, a distance table and
// optional scores from the input — small alphabets, so ties are the rule —
// and checks the lazy loop against the eager one. It also checks that the
// lazy loop never evaluates one (item, pick) pair twice.
func FuzzSelectMatchesEager(f *testing.F) {
	f.Add([]byte{16, 5, 1, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add([]byte{63, 63, 0, 7, 7, 0, 0, 1})
	f.Add([]byte{2, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		m := 1 + int(b[0])%64
		k := 1 + int(b[1])%m
		body := b[3:]
		at := func(n int) byte {
			if len(body) == 0 {
				return 0
			}
			return body[n%len(body)] >> (n % 3)
		}
		// Eight distance levels, the top one +Inf (the lazy loop's initial
		// bound), so bounds and exact values tie often.
		dist := func(i, j int) float64 {
			if v := at(i*m + j); v%8 != 7 {
				return float64(v%8) / 4
			}
			return math.Inf(1)
		}
		var score []float64
		if b[2]&1 == 1 {
			score = make([]float64, m)
			for i := range score {
				score[i] = float64(at(m*m+i) % 4)
			}
		}
		checkMatchesEager(t, m, k, dist, score)
		pairs := make(map[[2]int]bool)
		if _, err := SelectDiverseSet(m, k, func(i, j int) float64 {
			if pairs[[2]int{i, j}] {
				t.Fatalf("pair (%d, %d) evaluated twice", i, j)
			}
			pairs[[2]int{i, j}] = true
			return dist(i, j)
		}, score); err != nil {
			t.Fatal(err)
		}
	})
}

// benchSignatureDist builds a distance oracle with the cost profile of the
// real selection phase: each evaluation scans two t-slot MinHash signatures.
func benchSignatureDist(m, t int) (DistFunc, []float64) {
	mat := minhash.NewMatrix(t, m)
	fam, err := minhash.NewFamily(t, 11)
	if err != nil {
		panic(err)
	}
	hv := make([]uint32, t)
	for row := 0; row < 2*m; row++ {
		fam.HashAll(hv, uint64(row))
		mat.UpdateColumn(row%m, hv)
		mat.UpdateColumn((row*7+3)%m, hv)
	}
	score := make([]float64, m)
	for i := range score {
		score[i] = float64(i % 13)
	}
	return func(i, j int) float64 { return mat.EstimateJd(i, j) }, score
}

// BenchmarkSelectSequential measures the selection on a selection-phase
// shaped workload: m = 4096 skyline points, t = 400 slots, k = 32.
func BenchmarkSelectSequential(b *testing.B) {
	dist, score := benchSignatureDist(4096, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectDiverseSet(4096, 32, dist, score); err != nil {
			b.Fatal(err)
		}
	}
}
