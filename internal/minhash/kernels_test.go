package minhash

import (
	"math/rand"
	"testing"
)

// kernels_test.go pins the estimator micro-kernel — the SWAR EstimateJs —
// to the scalar reference implementation, including signature sizes that
// straddle the unroll width, and benchmarks the speedup.

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

// BenchmarkStepperGroupMin hashes consecutive row ids at t = 100, the
// Phase-1 default, one stepped addition per slot; BenchmarkHashAll100 is the
// same work at one 128-bit multiply per slot.
func BenchmarkStepperGroupMin(b *testing.B) {
	fam, _ := NewFamily(100, 1)
	st := fam.Stepper(0, 100)
	hv, gm := make([]uint32, 100), make([]uint32, GroupsFor(100))
	for i := 0; i < b.N; i++ {
		st.HashGroupMin(hv, uint64(i), gm)
	}
}

// estimateJsScalar is the reference implementation the kernels are tested
// against slot by slot.
func (m *Matrix) estimateJsScalar(i, j int) float64 {
	a, b := m.Column(i), m.Column(j)
	eq := 0
	for s := range a {
		if a[s] == b[s] {
			eq++
		}
	}
	return float64(eq) / float64(m.t)
}
