package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want bool
	}{
		{"strictly better everywhere", []float64{1, 1}, []float64{2, 2}, true},
		{"better on one, equal on other", []float64{1, 2}, []float64{2, 2}, true},
		{"equal points", []float64{1, 2}, []float64{1, 2}, false},
		{"incomparable", []float64{1, 3}, []float64{3, 1}, false},
		{"worse on one dim", []float64{1, 3}, []float64{2, 2}, false},
		{"dominated", []float64{5, 5}, []float64{1, 1}, false},
		{"1d strict", []float64{0}, []float64{1}, true},
		{"1d equal", []float64{1}, []float64{1}, false},
		{"3d mixed", []float64{1, 2, 3}, []float64{1, 2, 4}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dominates(tc.a, tc.b); got != tc.want {
				t.Errorf("Dominates(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDominatesOrEqual(t *testing.T) {
	if !DominatesOrEqual([]float64{1, 2}, []float64{1, 2}) {
		t.Error("equal points must satisfy DominatesOrEqual")
	}
	if DominatesOrEqual([]float64{1, 3}, []float64{2, 2}) {
		t.Error("incomparable points must not satisfy DominatesOrEqual")
	}
}

// randPoint draws a point in [0,1)^d with coordinates quantized to a small
// grid so that ties and equal points actually occur.
func randPoint(r *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = float64(r.Intn(8)) / 8
	}
	return p
}

// TestDominanceStrictPartialOrder checks irreflexivity, asymmetry and
// transitivity of the dominance relation on random quantized points.
func TestDominanceStrictPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for d := 1; d <= 5; d++ {
		for trial := 0; trial < 2000; trial++ {
			a, b, c := randPoint(r, d), randPoint(r, d), randPoint(r, d)
			if Dominates(a, a) {
				t.Fatalf("d=%d: irreflexivity violated for %v", d, a)
			}
			if Dominates(a, b) && Dominates(b, a) {
				t.Fatalf("d=%d: asymmetry violated for %v, %v", d, a, b)
			}
			if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
				t.Fatalf("d=%d: transitivity violated for %v, %v, %v", d, a, b, c)
			}
		}
	}
}

func TestDominatesQuick(t *testing.T) {
	// Dominance is invariant under appending a shared coordinate.
	f := func(a, b [3]float64, extra float64) bool {
		base := Dominates(a[:], b[:])
		ax := append(append([]float64{}, a[:]...), extra)
		bx := append(append([]float64{}, b[:]...), extra)
		return Dominates(ax, bx) == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreferences(t *testing.T) {
	prefs := Preferences{Min, Max, Min}
	if err := prefs.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := prefs.Validate(2); err == nil {
		t.Error("expected dimension mismatch error")
	}
	if err := (Preferences{Pref(7)}).Validate(1); err == nil {
		t.Error("expected invalid preference error")
	}
	p := prefs.Canonicalize([]float64{1, 2, 3})
	want := []float64{1, -2, 3}
	if !Equal(p, want) {
		t.Errorf("Canonicalize = %v, want %v", p, want)
	}
	// Under prefs, (price=1, quality=5) should dominate (price=2, quality=3).
	a := prefs[:2].Canonicalize([]float64{1, 5})
	b := prefs[:2].Canonicalize([]float64{2, 3})
	if !Dominates(a, b) {
		t.Error("max-preference canonicalization broken")
	}
}

func TestPrefString(t *testing.T) {
	if Min.String() != "min" || Max.String() != "max" {
		t.Error("Pref.String mismatch")
	}
}

func TestUpperCorner(t *testing.T) {
	dst := make([]float64, 2)
	got := UpperCorner(dst, []float64{1, 4}, []float64{3, 2})
	if !Equal(got, []float64{3, 4}) {
		t.Errorf("UpperCorner = %v", got)
	}
}

// TestUpperCornerIntersection: r dominated by both a and b iff r dominated by
// their upper corner — the identity behind the exact-Jaccard range oracle.
func TestUpperCornerIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dst := make([]float64, 3)
	for trial := 0; trial < 5000; trial++ {
		a, b, x := randPoint(r, 3), randPoint(r, 3), randPoint(r, 3)
		u := UpperCorner(dst, a, b)
		both := Dominates(a, x) && Dominates(b, x)
		// The corner identity holds up to strictness on shared boundaries:
		// Dominates(u, x) implies both, and both implies DominatesOrEqual(u, x).
		if Dominates(u, x) && !both {
			t.Fatalf("corner dominates but pair does not: a=%v b=%v x=%v", a, b, x)
		}
		if both && !DominatesOrEqual(u, x) {
			t.Fatalf("pair dominates but corner is worse: a=%v b=%v x=%v", a, b, x)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(2)
	if r.Area() != math.Inf(-1)*math.Inf(1) && !math.IsInf(r.Hi[0], -1) {
		t.Error("NewRect not reversed-empty")
	}
	r.ExpandPoint([]float64{1, 2})
	r.ExpandPoint([]float64{3, 0})
	if !Equal(r.Lo, []float64{1, 0}) || !Equal(r.Hi, []float64{3, 2}) {
		t.Fatalf("expand: %v", r)
	}
	if got := r.Area(); got != 4 {
		t.Errorf("Area = %v, want 4", got)
	}
	if got := r.Margin(); got != 4 {
		t.Errorf("Margin = %v, want 4", got)
	}
	if !r.Contains([]float64{2, 1}) || r.Contains([]float64{0, 1}) {
		t.Error("Contains broken")
	}
	o := Rect{Lo: []float64{2, 1}, Hi: []float64{5, 5}}
	if !r.Intersects(o) {
		t.Error("Intersects broken")
	}
	if got := r.OverlapArea(o); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	if got := r.EnlargedArea(o); got != 20 {
		t.Errorf("EnlargedArea = %v, want 20", got)
	}
	if r.ContainsRect(o) {
		t.Error("ContainsRect broken")
	}
	inner := Rect{Lo: []float64{1.5, 0.5}, Hi: []float64{2, 1}}
	if !r.ContainsRect(inner) {
		t.Error("ContainsRect should hold for inner rect")
	}
	c := r.Center(make([]float64, 2))
	if !Equal(c, []float64{2, 1}) {
		t.Errorf("Center = %v", c)
	}
	cl := r.Clone()
	cl.Lo[0] = -10
	if r.Lo[0] == -10 {
		t.Error("Clone aliases original")
	}
	r2 := NewRect(2)
	r2.ExpandRect(r)
	r2.ExpandRect(o)
	if !Equal(r2.Lo, []float64{1, 0}) || !Equal(r2.Hi, []float64{5, 5}) {
		t.Errorf("ExpandRect: %v", r2)
	}
}

func TestRectDisjoint(t *testing.T) {
	a := Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	b := Rect{Lo: []float64{2, 2}, Hi: []float64{3, 3}}
	if a.Intersects(b) {
		t.Error("disjoint rects intersect")
	}
	if a.OverlapArea(b) != 0 {
		t.Error("disjoint overlap must be 0")
	}
}

func TestPointRect(t *testing.T) {
	p := []float64{1, 2}
	r := PointRect(p)
	if r.Area() != 0 || !r.Contains(p) || r.Dims() != 2 {
		t.Error("PointRect broken")
	}
	if r.MinDistL1() != 3 {
		t.Error("MinDistL1 broken")
	}
}

func TestDomRelation(t *testing.T) {
	r := Rect{Lo: []float64{2, 2}, Hi: []float64{4, 4}}
	tests := []struct {
		name string
		p    []float64
		want DomRel
	}{
		{"full from below", []float64{1, 1}, DomFull},
		{"full touching one coord", []float64{2, 1}, DomFull},
		{"on lower corner", []float64{2, 2}, DomPartial},
		{"partial", []float64{3, 1}, DomPartial},
		{"partial inside", []float64{3, 3}, DomPartial},
		{"none", []float64{5, 1}, DomNone},
		{"upper corner", []float64{4, 4}, DomNone},
		{"beyond", []float64{9, 9}, DomNone},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := DomRelation(tc.p, r); got != tc.want {
				t.Errorf("DomRelation(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// TestDomRelationSound verifies the semantics SigGen-IB depends on: full
// dominance implies every point inside the rectangle is dominated, and no
// dominated point exists inside a DomNone rectangle.
func TestDomRelationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		d := 2 + rng.Intn(3)
		r := NewRect(d)
		r.ExpandPoint(randPoint(rng, d))
		r.ExpandPoint(randPoint(rng, d))
		p := randPoint(rng, d)
		rel := DomRelation(p, r)
		// Sample points inside r.
		for s := 0; s < 20; s++ {
			x := make([]float64, d)
			for i := range x {
				x[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
			}
			switch rel {
			case DomFull:
				if !Dominates(p, x) {
					t.Fatalf("full dominance unsound: p=%v r=%v x=%v", p, r, x)
				}
			case DomNone:
				if Dominates(p, x) {
					t.Fatalf("none dominance unsound: p=%v r=%v x=%v", p, r, x)
				}
			}
		}
	}
}

func TestDomRelString(t *testing.T) {
	if DomFull.String() != "full" || DomPartial.String() != "partial" || DomNone.String() != "none" {
		t.Error("DomRel.String mismatch")
	}
}

func TestL1(t *testing.T) {
	if L1([]float64{1, 2, 3}) != 6 {
		t.Error("L1 broken")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if Equal([]float64{1}, []float64{1, 2}) {
		t.Error("Equal must reject different lengths")
	}
}

func BenchmarkDominates(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const d = 6
	pts := make([][]float64, 1024)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dominates(pts[i%1024], pts[(i+1)%1024])
	}
}

func BenchmarkDomRelation(b *testing.B) {
	r := Rect{Lo: []float64{2, 2, 2, 2}, Hi: []float64{4, 4, 4, 4}}
	p := []float64{3, 1, 3, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DomRelation(p, r)
	}
}
