package lsh

import (
	"math"
	"math/rand"
	"testing"

	"skydiver/internal/minhash"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Zones: 4, Rows: 25, Buckets: 10}).Validate(100); err != nil {
		t.Error(err)
	}
	if err := (Params{Zones: 4, Rows: 20, Buckets: 10}).Validate(100); err == nil {
		t.Error("expected factorization error")
	}
	if err := (Params{Zones: 0, Rows: 1, Buckets: 1}).Validate(0); err == nil {
		t.Error("expected non-positive error")
	}
}

func TestThresholdAndSigmoid(t *testing.T) {
	p := Params{Zones: 20, Rows: 5, Buckets: 10}
	xi := p.Threshold()
	if math.Abs(xi-math.Pow(1.0/20, 0.2)) > 1e-12 {
		t.Errorf("Threshold = %v", xi)
	}
	// The sigmoid must be ~0.5-ish near the threshold, low below, high above.
	if p.CollisionProbability(xi/2) > 0.2 {
		t.Error("collision probability too high below threshold")
	}
	if p.CollisionProbability(xi+(1-xi)/2) < 0.8 {
		t.Error("collision probability too low above threshold")
	}
	if p.CollisionProbability(0) != 0 || math.Abs(p.CollisionProbability(1)-1) > 1e-12 {
		t.Error("sigmoid endpoints broken")
	}
}

func TestChooseParams(t *testing.T) {
	for _, xi := range []float64{0.1, 0.2, 0.3, 0.4, 0.8} {
		p, err := ChooseParams(100, xi, 20)
		if err != nil {
			t.Fatal(err)
		}
		if p.Zones*p.Rows != 100 || p.Buckets != 20 {
			t.Fatalf("invalid factorization %+v", p)
		}
		// No other factorization should be strictly closer.
		best := math.Abs(p.Threshold() - xi)
		for z := 2; z <= 100; z++ {
			if 100%z != 0 {
				continue
			}
			alt := Params{Zones: z, Rows: 100 / z, Buckets: 20}
			if math.Abs(alt.Threshold()-xi) < best-1e-12 {
				t.Fatalf("xi=%v: chose %+v but %+v is closer", xi, p, alt)
			}
		}
	}
	// Raising the threshold must not increase the zone count (the memory
	// mechanism of Figure 13).
	lo, _ := ChooseParams(100, 0.1, 10)
	hi, _ := ChooseParams(100, 0.4, 10)
	if hi.Zones > lo.Zones {
		t.Errorf("zones grew with threshold: %d -> %d", lo.Zones, hi.Zones)
	}
}

func TestChooseParamsErrors(t *testing.T) {
	if _, err := ChooseParams(1, 0.2, 10); err == nil {
		t.Error("expected error for t=1")
	}
	if _, err := ChooseParams(100, 0, 10); err == nil {
		t.Error("expected error for xi=0")
	}
	if _, err := ChooseParams(100, 1, 10); err == nil {
		t.Error("expected error for xi=1")
	}
	if _, err := ChooseParams(100, math.NaN(), 10); err == nil {
		t.Error("expected error for xi=NaN")
	}
	if _, err := ChooseParams(100, 0.2, 0); err == nil {
		t.Error("expected error for buckets=0")
	}
}

// buildMatrix creates a signature matrix over explicit sets.
func buildMatrix(t *testing.T, tSig int, sets []map[uint64]bool) *minhash.Matrix {
	t.Helper()
	f, err := minhash.NewFamily(tSig, 17)
	if err != nil {
		t.Fatal(err)
	}
	m := minhash.NewMatrix(tSig, len(sets))
	hv := make([]uint32, tSig)
	for c, set := range sets {
		for x := range set {
			f.HashAll(hv, x)
			m.UpdateColumn(c, hv)
		}
	}
	return m
}

func randomSets(r *rand.Rand, count int) []map[uint64]bool {
	sets := make([]map[uint64]bool, count)
	for i := range sets {
		sets[i] = map[uint64]bool{}
		n := 50 + r.Intn(200)
		for j := 0; j < n; j++ {
			sets[i][uint64(r.Intn(2000))] = true
		}
	}
	return sets
}

func TestBuildInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := buildMatrix(t, 100, randomSets(r, 30))
	p := Params{Zones: 25, Rows: 4, Buckets: 16}
	bv, err := Build(m, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Cols() != 30 || bv.Params() != p {
		t.Error("accessors broken")
	}
	for c := 0; c < bv.Cols(); c++ {
		// Exactly one set bit per zone: ||bv||1 = ζ (Section 4.2.2).
		if got := bv.OnesCount(c); got != p.Zones {
			t.Fatalf("column %d has %d set bits, want %d", c, got, p.Zones)
		}
		for z := 0; z < p.Zones; z++ {
			if b := bv.Bucket(c, z); b < 0 || b >= p.Buckets {
				t.Fatalf("bucket out of range: %d", b)
			}
		}
	}
}

func TestBuildValidates(t *testing.T) {
	m := minhash.NewMatrix(10, 2)
	if _, err := Build(m, Params{Zones: 3, Rows: 3, Buckets: 4}, 1); err == nil {
		t.Error("expected validation error")
	}
}

// TestHammingMatchesBucketDisagreement: Hamming distance equals twice the
// number of zones where the two points hash to different buckets (the
// paper's Example 3 identity).
func TestHammingMatchesBucketDisagreement(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := buildMatrix(t, 60, randomSets(r, 20))
	p := Params{Zones: 12, Rows: 5, Buckets: 8}
	bv, err := Build(m, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bv.Cols(); i++ {
		for j := i + 1; j < bv.Cols(); j++ {
			disagree := 0
			for z := 0; z < p.Zones; z++ {
				if bv.Bucket(i, z) != bv.Bucket(j, z) {
					disagree++
				}
			}
			if got := bv.Hamming(i, j); got != 2*disagree {
				t.Fatalf("Hamming(%d,%d) = %d, want %d", i, j, got, 2*disagree)
			}
		}
	}
}

func TestHammingMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	m := buildMatrix(t, 60, randomSets(r, 15))
	bv, err := Build(m, Params{Zones: 15, Rows: 4, Buckets: 10}, 9)
	if err != nil {
		t.Fatal(err)
	}
	n := bv.Cols()
	for i := 0; i < n; i++ {
		if bv.Hamming(i, i) != 0 {
			t.Fatal("Hamming(i,i) != 0")
		}
		for j := 0; j < n; j++ {
			if bv.Hamming(i, j) != bv.Hamming(j, i) {
				t.Fatal("Hamming not symmetric")
			}
			for k := 0; k < n; k++ {
				if bv.Hamming(i, k) > bv.Hamming(i, j)+bv.Hamming(j, k) {
					t.Fatal("triangle inequality violated")
				}
			}
		}
	}
}

// TestIdenticalSignaturesCollide: identical signatures land in the same
// bucket in every zone, giving Hamming distance 0.
func TestIdenticalSignaturesCollide(t *testing.T) {
	f, _ := minhash.NewFamily(40, 1)
	m := minhash.NewMatrix(40, 2)
	hv := make([]uint32, 40)
	for x := uint64(0); x < 100; x++ {
		f.HashAll(hv, x)
		m.UpdateColumn(0, hv)
		m.UpdateColumn(1, hv)
	}
	bv, err := Build(m, Params{Zones: 10, Rows: 4, Buckets: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Hamming(0, 1) != 0 {
		t.Error("identical signatures must collide everywhere")
	}
}

// TestSimilarCloserThanDissimilar: a pair with high Jaccard similarity gets
// a smaller Hamming distance than a disjoint pair.
func TestSimilarCloserThanDissimilar(t *testing.T) {
	sets := []map[uint64]bool{{}, {}, {}}
	for x := uint64(0); x < 300; x++ {
		sets[0][x] = true
		if x < 280 {
			sets[1][x] = true // 93% overlap with set 0
		}
		sets[2][x+10000] = true // disjoint
	}
	m := buildMatrix(t, 100, sets)
	bv, err := Build(m, Params{Zones: 25, Rows: 4, Buckets: 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Hamming(0, 1) >= bv.Hamming(0, 2) {
		t.Errorf("similar pair (%d) not closer than disjoint pair (%d)",
			bv.Hamming(0, 1), bv.Hamming(0, 2))
	}
}

func TestMemoryBytes(t *testing.T) {
	m := minhash.NewMatrix(100, 50)
	bv, err := Build(m, Params{Zones: 20, Rows: 5, Buckets: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 200 bits -> 4 words -> 32 bytes per column.
	if got := bv.MemoryBytes(); got != 32*50 {
		t.Errorf("MemoryBytes = %d, want %d", got, 32*50)
	}
	// LSH must be smaller than the 4-byte-per-slot signature matrix here.
	if bv.MemoryBytes() >= m.MemoryBytes() {
		t.Error("LSH vectors should be smaller than MinHash signatures")
	}
}

func BenchmarkHamming(b *testing.B) {
	m := minhash.NewMatrix(100, 2)
	bv, _ := Build(m, Params{Zones: 25, Rows: 4, Buckets: 20}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bv.Hamming(0, 1)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	f, _ := minhash.NewFamily(100, 1)
	m := minhash.NewMatrix(100, 200)
	hv := make([]uint32, 100)
	for c := 0; c < 200; c++ {
		for j := 0; j < 50; j++ {
			f.HashAll(hv, uint64(r.Intn(5000)))
			m.UpdateColumn(c, hv)
		}
	}
	p := Params{Zones: 25, Rows: 4, Buckets: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m, p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
