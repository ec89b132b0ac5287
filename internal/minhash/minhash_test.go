package minhash

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 1); err == nil {
		t.Error("expected error for t=0")
	}
	f, err := NewFamily(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 16 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestFamilyDeterministic(t *testing.T) {
	f1, _ := NewFamily(8, 42)
	f2, _ := NewFamily(8, 42)
	f3, _ := NewFamily(8, 43)
	h1, h2, h3 := make([]uint32, 8), make([]uint32, 8), make([]uint32, 8)
	f1.HashAll(h1, 12345)
	f2.HashAll(h2, 12345)
	f3.HashAll(h3, 12345)
	same3 := 0
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("same seed must give same hashes")
		}
		if h1[i] == h3[i] {
			same3++
		}
	}
	if same3 == 8 {
		t.Error("different seeds gave identical families")
	}
}

func TestHashConsistency(t *testing.T) {
	f, _ := NewFamily(8, 7)
	all := make([]uint32, 8)
	f.HashAll(all, 999)
	for i := 0; i < 8; i++ {
		if got := f.Hash(i, 999); got != all[i] {
			t.Errorf("Hash(%d) = %d, HashAll gave %d", i, got, all[i])
		}
	}
}

// TestStepperMatchesHash pins stepped hashing to Family.Hash on the row-id
// patterns the generators produce — consecutive runs, gaps, repeats, reverse
// order — and on ids above 2³², over the whole family and over stripes.
func TestStepperMatchesHash(t *testing.T) {
	const size = 100
	fam, _ := NewFamily(size, 3)
	run := func(lo, n uint64) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = lo + uint64(i)
		}
		return xs
	}
	var gaps []uint64
	for x := uint64(0); x < 5000; x += 1 + x%7/5*(x%13) {
		gaps = append(gaps, x)
	}
	reverse := run(0, 1000)
	slices.Reverse(reverse)
	patterns := map[string][]uint64{
		"consecutive": run(0, 2000),
		"gaps":        gaps,
		"repeats":     {5, 5, 6, 6, 6, 7, 9, 9},
		"reverse":     reverse,
		"above 2^32":  append(append(run(1<<32-3, 600), run(1<<40+7, 300)...), 1<<60, 1<<60+1, 1<<61-2, 1<<61-1, 1<<61),
	}
	hv, want := make([]uint32, size), make([]uint32, size)
	gm, wantGm := make([]uint32, GroupsFor(size)), make([]uint32, GroupsFor(size))
	stripe, stripeGm := make([]uint32, size), make([]uint32, GroupsFor(size))
	for name, xs := range patterns {
		st := fam.Stepper(0, size)
		stripes := [][2]int{{0, 33}, {33, 34}, {34, size}, {50, 50}}
		steppers := make([]*Stepper, len(stripes))
		for i, sr := range stripes {
			steppers[i] = fam.Stepper(sr[0], sr[1])
		}
		for _, x := range xs {
			minv := st.HashGroupMin(hv, x, gm)
			fam.HashAll(want, x)
			wantMin := uint32(math.MaxUint32)
			for k := range wantGm {
				wantGm[k] = slices.Min(want[k*size/len(wantGm) : (k+1)*size/len(wantGm)])
				wantMin = min(wantMin, wantGm[k])
			}
			for i := range want {
				if want[i] != fam.Hash(i, x) || hv[i] != want[i] {
					t.Fatalf("%s: row %d slot %d: stepped %d, Hash %d", name, x, i, hv[i], fam.Hash(i, x))
				}
			}
			if minv != wantMin || !slices.Equal(gm, wantGm) {
				t.Fatalf("%s: row %d: minima %d %v, want %d %v", name, x, minv, gm, wantMin, wantGm)
			}
			for i, sr := range stripes {
				smin := steppers[i].HashGroupMin(stripe, x, stripeGm[:GroupsFor(sr[1]-sr[0])])
				wmin := uint32(math.MaxUint32)
				for s := sr[0]; s < sr[1]; s++ {
					if stripe[s-sr[0]] != want[s] {
						t.Fatalf("%s: row %d stripe %v slot %d: %d, want %d", name, x, sr, s, stripe[s-sr[0]], want[s])
					}
					wmin = min(wmin, want[s])
				}
				if smin != wmin {
					t.Fatalf("%s: row %d stripe %v: min %d, want %d", name, x, sr, smin, wmin)
				}
			}
		}
	}
}

// TestStepperClamp steps onto the emptySlot sentinel: slot 0 reaches
// 2³²−1 at row 1 and must be clamped like hashOne clamps it, while slots 1
// and 2 (a = P−1) wrap modulo P on every step, slot 2 landing exactly on P
// at row 1.
func TestStepperClamp(t *testing.T) {
	fam := &Family{a: []uint64{1, mersenne61 - 1, mersenne61 - 1}, b: []uint64{emptySlot - 1, 5, 1}}
	st := fam.Stepper(0, 3)
	hv, gm := make([]uint32, 3), make([]uint32, GroupsFor(3))
	for x := uint64(0); x < 4; x++ {
		st.HashGroupMin(hv, x, gm)
		for i := range hv {
			if hv[i] != fam.Hash(i, x) {
				t.Fatalf("row %d slot %d: stepped %d, Hash %d", x, i, hv[i], fam.Hash(i, x))
			}
		}
		if x == 1 && (hv[0] != emptySlot-1 || hv[1] != 4 || hv[2] != 0) {
			t.Fatalf("row 1: %v, want [%d 4 0]", hv, uint32(emptySlot-1))
		}
	}
}

// TestMulmod61 validates the Mersenne reduction against big-integer-free
// reference computation on small operands and random large ones via the
// distributive property.
func TestMulmod61(t *testing.T) {
	const p = uint64(1<<61 - 1)
	for _, tc := range [][3]uint64{
		{0, 0, 0},
		{1, 1, 1},
		{p - 1, 1, p - 1},
		{p - 1, 2, p - 2},     // 2p-2 mod p
		{1 << 30, 1 << 31, 1}, // 2^61 mod p = 1
	} {
		if got := mulmod61(tc[0], tc[1]); got != tc[2] {
			t.Errorf("mulmod61(%d, %d) = %d, want %d", tc[0], tc[1], got, tc[2])
		}
	}
	// Property: (a·x + a·y) mod p == a·(x+y) mod p for x+y < p.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10000; trial++ {
		a := uint64(r.Int63n(int64(p)))
		x := uint64(r.Int63n(1 << 40))
		y := uint64(r.Int63n(1 << 40))
		lhs := mulmod61(a, x) + mulmod61(a, y)
		lhs %= p
		rhs := mulmod61(a, x+y)
		if lhs != rhs {
			t.Fatalf("distributivity failed: a=%d x=%d y=%d", a, x, y)
		}
	}
}

func TestMul64AgainstSmall(t *testing.T) {
	f := func(a, b uint32) bool {
		hi, lo := mul64(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	hi, lo := mul64(1<<63, 2)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^63, 2) = (%d, %d), want (1, 0)", hi, lo)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4, 3)
	if m.T() != 4 || m.Cols() != 3 || m.MemoryBytes() != 48 {
		t.Error("matrix accessors broken")
	}
	for _, v := range m.Column(1) {
		if v != emptySlot {
			t.Fatal("fresh matrix not empty")
		}
	}
	m.UpdateColumn(1, []uint32{5, 9, 2, 7})
	m.UpdateColumn(1, []uint32{6, 3, 4, 7})
	want := []uint32{5, 3, 2, 7}
	for i, v := range m.Column(1) {
		if v != want[i] {
			t.Errorf("slot %d = %d, want %d", i, v, want[i])
		}
	}
	// Other columns untouched.
	if m.Column(0)[0] != emptySlot || m.Column(2)[0] != emptySlot {
		t.Error("update leaked into other columns")
	}
}

func TestEstimateIdenticalAndEmpty(t *testing.T) {
	m := NewMatrix(8, 2)
	hv := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	m.UpdateColumn(0, hv)
	m.UpdateColumn(1, hv)
	if js := m.EstimateJs(0, 1); js != 1 {
		t.Errorf("identical columns Js = %v", js)
	}
	if jd := m.EstimateJd(0, 1); jd != 0 {
		t.Errorf("identical columns Jd = %v", jd)
	}
	empty := NewMatrix(8, 2)
	if js := empty.EstimateJs(0, 1); js != 1 {
		t.Errorf("two empty columns must be identical, Js = %v", js)
	}
}

// exactJaccard computes the exact Jaccard similarity of two integer sets.
func exactJaccard(a, b map[uint64]bool) float64 {
	inter, union := 0, 0
	for x := range a {
		if b[x] {
			inter++
		}
	}
	union = len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestEstimateConvergence builds signatures over explicit random sets and
// checks the MinHash estimate approaches the exact Jaccard similarity,
// the core property Prob[h(p)=h(q)] = Js(p,q) the framework rests on.
func TestEstimateConvergence(t *testing.T) {
	const tSig = 512
	f, _ := NewFamily(tSig, 11)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		// Build two overlapping sets with controlled overlap.
		a := map[uint64]bool{}
		b := map[uint64]bool{}
		shared := 100 + r.Intn(400)
		onlyA := r.Intn(400)
		onlyB := r.Intn(400)
		next := uint64(1)
		for i := 0; i < shared; i++ {
			a[next] = true
			b[next] = true
			next++
		}
		for i := 0; i < onlyA; i++ {
			a[next] = true
			next++
		}
		for i := 0; i < onlyB; i++ {
			b[next] = true
			next++
		}
		m := NewMatrix(tSig, 2)
		hv := make([]uint32, tSig)
		for x := range a {
			f.HashAll(hv, x)
			m.UpdateColumn(0, hv)
		}
		for x := range b {
			f.HashAll(hv, x)
			m.UpdateColumn(1, hv)
		}
		want := exactJaccard(a, b)
		got := m.EstimateJs(0, 1)
		// Standard error ~ sqrt(J(1-J)/t) <= 0.5/sqrt(512) ≈ 0.022; allow 4σ.
		if math.Abs(got-want) > 0.09 {
			t.Errorf("trial %d: estimate %v, exact %v", trial, got, want)
		}
	}
}

// TestEstimateMonotone: supersets of shared rows increase estimated
// similarity on average; disjoint sets estimate near zero.
func TestEstimateDisjoint(t *testing.T) {
	const tSig = 256
	f, _ := NewFamily(tSig, 2)
	m := NewMatrix(tSig, 2)
	hv := make([]uint32, tSig)
	for x := uint64(0); x < 500; x++ {
		f.HashAll(hv, x)
		m.UpdateColumn(0, hv)
	}
	for x := uint64(1000); x < 1500; x++ {
		f.HashAll(hv, x)
		m.UpdateColumn(1, hv)
	}
	if js := m.EstimateJs(0, 1); js > 0.05 {
		t.Errorf("disjoint sets estimated Js = %v", js)
	}
}

func TestHashUniformity(t *testing.T) {
	f, _ := NewFamily(1, 9)
	buckets := make([]int, 16)
	for x := uint64(0); x < 16000; x++ {
		buckets[f.Hash(0, x)%16]++
	}
	for i, c := range buckets {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d has %d of 16000 (expected ~1000)", i, c)
		}
	}
}

func BenchmarkHashAll100(b *testing.B) {
	f, _ := NewFamily(100, 1)
	dst := make([]uint32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.HashAll(dst, uint64(i))
	}
}
