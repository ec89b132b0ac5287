package minhash

import (
	"math/rand"
	"testing"
)

// kernels_test.go pins the estimator micro-kernels — the 8-way unrolled
// EstimateJs and the slot-blocked EstimateJsMany — to the scalar reference
// implementation, including signature sizes that straddle the unroll width
// and the streaming block boundary, and benchmarks the speedup.

// randomMatrix builds a t×cols matrix whose columns share enough hashed rows
// that similarities span (0, 1) rather than clustering at the extremes.
func randomMatrix(t, cols int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	fam, err := NewFamily(t, seed)
	if err != nil {
		panic(err)
	}
	m := NewMatrix(t, cols)
	hv := make([]uint32, t)
	for row := 0; row < 4*cols; row++ {
		fam.HashAll(hv, uint64(row))
		for c := 0; c < cols; c++ {
			// Column c absorbs a pseudo-random, column-biased subset of rows.
			if r.Intn(cols) <= c {
				m.UpdateColumn(c, hv)
			}
		}
	}
	return m
}

// TestEstimateJsMatchesScalar checks the unrolled kernel against the scalar
// reference on signature sizes around the 8-slot unroll width.
func TestEstimateJsMatchesScalar(t *testing.T) {
	for _, tt := range []int{1, 2, 7, 8, 9, 15, 16, 17, 100, 400} {
		m := randomMatrix(tt, 12, int64(tt))
		for i := 0; i < m.Cols(); i++ {
			for j := 0; j < m.Cols(); j++ {
				got, want := m.EstimateJs(i, j), m.estimateJsScalar(i, j)
				if got != want {
					t.Fatalf("t=%d: EstimateJs(%d,%d) = %v, scalar %v", tt, i, j, got, want)
				}
			}
		}
	}
}

// TestEstimateJsManyMatchesScalar checks the batched kernel on block-layout
// edge cases: signatures smaller than, equal to, one past, and several times
// the streaming slot block — the row-blocked layout must change nothing but
// the access order.
func TestEstimateJsManyMatchesScalar(t *testing.T) {
	for _, tt := range []int{3, 100, slotBlock - 1, slotBlock, slotBlock + 1, 3*slotBlock + 7} {
		m := randomMatrix(tt, 10, int64(tt))
		js := []int{0, 3, 3, 9, 1, 5}
		out := make([]float64, len(js))
		for i := 0; i < m.Cols(); i++ {
			m.EstimateJsMany(i, js, out)
			for c, j := range js {
				if want := m.estimateJsScalar(i, j); out[c] != want {
					t.Fatalf("t=%d: EstimateJsMany(%d)[%d→%d] = %v, scalar %v", tt, i, c, j, out[c], want)
				}
			}
		}
	}
}

// TestEstimateJdManyMatchesPairwise pins the distance form to the pairwise
// EstimateJd, bit for bit.
func TestEstimateJdManyMatchesPairwise(t *testing.T) {
	m := randomMatrix(100, 20, 42)
	js := make([]int, m.Cols())
	for j := range js {
		js[j] = j
	}
	out := make([]float64, len(js))
	for i := 0; i < m.Cols(); i++ {
		m.EstimateJdMany(i, js, out)
		for c, j := range js {
			if want := m.EstimateJd(i, j); out[c] != want {
				t.Fatalf("EstimateJdMany(%d)[%d] = %v, want %v", i, j, out[c], want)
			}
		}
	}
}

// TestEstimateJsManyEmpty checks the no-candidate edge case.
func TestEstimateJsManyEmpty(t *testing.T) {
	m := randomMatrix(100, 4, 1)
	m.EstimateJsMany(0, nil, nil) // must not panic
}

// --- benchmarks -----------------------------------------------------------

// benchMatrix is a selection-phase-shaped workload: the paper's default
// signature size against a mid-size skyline.
func benchMatrix(t, cols int) *Matrix { return randomMatrix(t, cols, 7) }

// BenchmarkEstimateJs measures the unrolled pairwise kernel (t = 400, the
// paper's largest signature, where kernel shape matters most).
func BenchmarkEstimateJs(b *testing.B) {
	m := benchMatrix(400, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateJs(i%64, (i+17)%64)
	}
}

// BenchmarkEstimateJsSmall measures the pairwise kernel at the paper's
// smallest signature (t = 20), just past the small-input dispatch threshold
// — the regime where SWAR setup cost once made the kernel slower than the
// scalar loop.
func BenchmarkEstimateJsSmall(b *testing.B) {
	m := benchMatrix(20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateJs(i%64, (i+17)%64)
	}
}

// BenchmarkEstimateJsScalar is the pre-kernel baseline for the same pairs.
func BenchmarkEstimateJsScalar(b *testing.B) {
	m := benchMatrix(400, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.estimateJsScalar(i%64, (i+17)%64)
	}
}

// BenchmarkEstimateJsMany measures one full one-against-many update round —
// the selection phase's inner loop — with the blocked batch kernel.
func BenchmarkEstimateJsMany(b *testing.B) {
	m := benchMatrix(400, 512)
	js := make([]int, m.Cols()-1)
	for j := range js {
		js[j] = j + 1
	}
	out := make([]float64, len(js))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateJsMany(0, js, out)
	}
}

// BenchmarkEstimateJsManyScalarLoop is the same round as a loop of scalar
// estimates, the shape the selection phase had before the batch kernel.
func BenchmarkEstimateJsManyScalarLoop(b *testing.B) {
	m := benchMatrix(400, 512)
	out := make([]float64, m.Cols()-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 1; j < m.Cols(); j++ {
			out[j-1] = m.estimateJsScalar(0, j)
		}
	}
}

// BenchmarkHashAllGroupMin and BenchmarkStepperGroupMin hash consecutive
// row ids at t = 100, the Phase-1 default: one 128-bit multiply per slot
// against one stepped addition per slot.
func BenchmarkHashAllGroupMin(b *testing.B) {
	fam, _ := NewFamily(100, 1)
	hv, gm := make([]uint32, 100), make([]uint32, GroupsFor(100))
	for i := 0; i < b.N; i++ {
		fam.HashAllGroupMin(hv, uint64(i), gm)
	}
}

func BenchmarkStepperGroupMin(b *testing.B) {
	fam, _ := NewFamily(100, 1)
	st := fam.Stepper(0, 100)
	hv, gm := make([]uint32, 100), make([]uint32, GroupsFor(100))
	for i := 0; i < b.N; i++ {
		st.HashGroupMin(hv, uint64(i), gm)
	}
}
