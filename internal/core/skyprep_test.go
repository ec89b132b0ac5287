package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
)

// skyprep_test.go pins the prefix-bitset kernel to geom.Dominates and
// geom.DomRelation on inputs full of ties: integer-grid coordinates, where
// whole points repeat (twins) and probes tie keys on every axis.

// gridPoints returns n points with integer coordinates in [0, levels).
func gridPoints(r *rand.Rand, n, d, levels int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(levels))
		}
	}
	return pts
}

// prepOf prepares the columns cols as a skyline.
func prepOf(d int, cols [][]float64) *skyPrep {
	return prepareSkylineFrom(d, len(cols), func(j int) []float64 { return cols[j] })
}

// bruteDominators is the reference: every column strictly dominating p.
func bruteDominators(cols [][]float64, p []float64) []int32 {
	out := []int32{}
	for c, s := range cols {
		if geom.Dominates(s, p) {
			out = append(out, int32(c))
		}
	}
	return out
}

// setCols returns the members of a column set in ascending order.
func setCols(set []uint64) []int32 {
	out := []int32{}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// checkKernel compares every kernel of pr with the geom reference on the
// given probe points and rectangles: the dominator set of each probe, and
// the full-dominator set and partial verdict of each rectangle.
func checkKernel(t *testing.T, tag string, pr *skyProbe, cols, probes [][]float64, rects []geom.Rect) {
	t.Helper()
	for _, p := range probes {
		nonEmpty := pr.dominatorSet(pr.set, p)
		want := bruteDominators(cols, p)
		if got := setCols(pr.set); !slices.Equal(got, want) || nonEmpty != (len(want) > 0) {
			t.Fatalf("%s: dominatorSet(%v) = %v (non-empty %v), want %v", tag, p, got, nonEmpty, want)
		}
	}
	for _, r := range rects {
		wantFull, wantPart := []int32{}, []int32{}
		for c, s := range cols {
			switch geom.DomRelation(s, r) {
			case geom.DomFull:
				wantFull = append(wantFull, int32(c))
			case geom.DomPartial:
				wantPart = append(wantPart, int32(c))
			}
		}
		full, partial := pr.classifyRect(r)
		if partial != (len(wantPart) > 0) || !partial && !slices.Equal(setCols(full), wantFull) {
			t.Fatalf("%s: classifyRect(%v) = %v, %v; want full %v, partial %v", tag, r, setCols(full), partial, wantFull, wantPart)
		}
	}
}

// TestDominatorsMatchGeom covers d = 1..6 and skylines from one column to
// past 2000, including sizes that are not multiples of 64 and sizes whose
// checkpoint stride is above 1. Probes are the columns themselves (a tie
// on every axis), fresh grid points, half-step points (no ties) and points
// with -0 where the keys hold +0.
func TestDominatorsMatchGeom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for d := 1; d <= 6; d++ {
		for _, m := range []int{1, 2, 63, 64, 65, 216, 1000, 1100, 2100} {
			levels := 4 + 4*(m%3)
			cols := gridPoints(r, m, d, levels)
			sp := prepOf(d, cols)
			if wantStride1 := m <= 1000; (sp.stride == 1) != wantStride1 {
				t.Fatalf("d=%d m=%d: checkpoint stride %d", d, m, sp.stride)
			}
			probes := append([][]float64{}, cols[:min(m, 150)]...)
			probes = append(probes, gridPoints(r, 150, d, levels)...)
			for _, p := range gridPoints(r, 50, d, levels) {
				for j := range p {
					p[j] += 0.5
				}
				probes = append(probes, p)
			}
			negZero := make([]float64, d)
			for j := range negZero {
				negZero[j] = math.Copysign(0, -1)
			}
			probes = append(probes, negZero, make([]float64, d))
			var rects []geom.Rect
			for i := 0; i+1 < len(probes); i += 3 {
				rc := geom.NewRect(d)
				rc.ExpandPoint(probes[i])
				rc.ExpandPoint(probes[i+1])
				rects = append(rects, rc, geom.PointRect(probes[i]))
			}
			rects = append(rects, geom.Rect{Lo: probes[1], Hi: probes[0]}) // possibly inverted
			checkKernel(t, "grid", sp.probe(), cols, probes, rects)
		}
	}
}

// TestDominatorsSpecialValues covers coordinates the grid never produces:
// infinities, signed zeros and NaN, which geom.Dominates treats as
// comparing false both ways.
func TestDominatorsSpecialValues(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	vals := []float64{-inf, -1, negZero, 0, 0.5, 1, inf, nan}
	r := rand.New(rand.NewSource(2))
	for d := 1; d <= 4; d++ {
		point := func() []float64 {
			p := make([]float64, d)
			for j := range p {
				p[j] = vals[r.Intn(len(vals))]
			}
			return p
		}
		for _, m := range []int{1, 5, 70, 300} {
			cols := make([][]float64, m)
			for i := range cols {
				cols[i] = point()
			}
			probes := append([][]float64{}, cols...)
			for i := 0; i < 200; i++ {
				probes = append(probes, point())
			}
			var rects []geom.Rect
			for i := 0; i+1 < len(probes); i += 2 {
				rects = append(rects, geom.Rect{Lo: probes[i], Hi: probes[i+1]})
			}
			checkKernel(t, "special", prepOf(d, cols).probe(), cols, probes, rects)
		}
	}
}

// FuzzDominators compares the kernel with brute force on arbitrary float64
// points: raw is cut into dims-dimensional points, the first few of which
// form the skyline; every point is probed and consecutive pairs form
// rectangles (inverted ones included).
func FuzzDominators(f *testing.F) {
	enc := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, byte(math.Float64bits(v)), byte(math.Float64bits(v)>>8), byte(math.Float64bits(v)>>16),
				byte(math.Float64bits(v)>>24), byte(math.Float64bits(v)>>32), byte(math.Float64bits(v)>>40),
				byte(math.Float64bits(v)>>48), byte(math.Float64bits(v)>>56))
		}
		return b
	}
	f.Add(uint8(1), uint8(2), enc(1, 2, 2, 1, 2, 2, 3, 3, 1, 1))
	f.Add(uint8(2), uint8(3), enc(0, 1, 2, 1, 0, 2, 2, 2, 0, 0, 1, 1, 1, 1, 1, 2, 2, 1))
	f.Add(uint8(0), uint8(1), enc(0, math.Copysign(0, -1), 1))
	f.Fuzz(func(t *testing.T, dims, nsky uint8, raw []byte) {
		d := 1 + int(dims%6)
		if len(raw) > 8*d*256 {
			raw = raw[:8*d*256]
		}
		n := len(raw) / (8 * d)
		if n == 0 {
			return
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				o := 8 * (i*d + j)
				var u uint64
				for b := 7; b >= 0; b-- {
					u = u<<8 | uint64(raw[o+b])
				}
				pts[i][j] = math.Float64frombits(u)
			}
		}
		cols := pts[:1+int(nsky)%n]
		var rects []geom.Rect
		for i := 0; i+1 < n; i++ {
			rects = append(rects, geom.Rect{Lo: pts[i], Hi: pts[i+1]})
		}
		checkKernel(t, "fuzz", prepOf(d, cols).probe(), cols, pts, rects)
	})
}

// TestSigGenIFMatchesBruteForceOnTies runs the index-free generators over
// grid data with twins and tombstones and compares them with SigGenSets on
// dominated sets enumerated by brute force over the live rows.
func TestSigGenIFMatchesBruteForceOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for d := 1; d <= 5; d++ {
		rows := gridPoints(r, 1500, d, 6)
		for i := 0; i < 60; i++ {
			rows = append(rows, append([]float64(nil), rows[r.Intn(len(rows))]...))
		}
		ds, err := data.FromRows("ties", rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.Len(); i += 7 {
			ds.MarkDeleted(i)
		}
		sky := naiveSkyline(ds)
		lists := make([][]int, len(sky))
		for c, s := range sky {
			for i := 0; i < ds.Len(); i++ {
				if !ds.Deleted(i) && geom.Dominates(ds.Point(s), ds.Point(i)) {
					lists[c] = append(lists[c], i)
				}
			}
		}
		fam, _ := minhash.NewFamily(64, int64(d))
		want, err := SigGenSets(lists, fam)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		par, err := SigGenIFParallel(ds, sky, fam, 3)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Fingerprint{"IF": seq, "IF-parallel": par} {
			for c := range sky {
				if !slices.Equal(got.Matrix.Column(c), want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
					t.Fatalf("d=%d %s: column %d differs from the brute-force fold", d, name, c)
				}
			}
		}
	}
}

// TestDomScoreCarriesThroughEveryPlane counts past 2¹⁷ rows in one column,
// so the bit-sliced counters carry through every plane. The skyline is a
// staircase of 57 points (s, −s), s = k/64 for k ≤ 56; point s dominates the
// rows with x ≥ s, so column 0 dominates all 160,000 rows in [0, 1)². The
// staircase cuts every STR leaf left of x = 0.875, which SigGen-IB opens
// and counts one point at a time (about 140,000 rows), while the subtrees
// right of it are whole-subtree runs that add their counts directly.
// SigGen-IF at 1 and 2 workers, SigGen-IB at 1 and 2 and the streaming pass
// must all give the exact counts.
func TestDomScoreCarriesThroughEveryPlane(t *testing.T) {
	const steps, n = 57, 160_000
	r := rand.New(rand.NewSource(17))
	rows := make([][]float64, 0, steps+n)
	for k := range steps {
		s := float64(k) / 64
		rows = append(rows, []float64{s, -s})
	}
	for range n {
		rows = append(rows, []float64{r.Float64(), r.Float64()})
	}
	ds, err := data.FromRows("staircase", rows)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, ds)
	if len(in.Sky) != steps || in.Sky[steps-1] != steps-1 {
		t.Fatalf("skyline %v, want the %d staircase points", in.Sky, steps)
	}
	want := make([]float64, steps)
	for _, p := range rows[steps:] {
		for c := range steps {
			if geom.Dominates(rows[c], p) {
				want[c]++
			}
		}
	}
	if want[0] != n || n < 1<<17 {
		t.Fatalf("column 0 dominates %v rows, want %d ≥ 2¹⁷", want[0], n)
	}
	fam, _ := minhash.NewFamily(4, 3)
	pts := rows[:steps]
	runs := map[string]func() (*Fingerprint, error){
		"SigGen-IF":            func() (*Fingerprint, error) { return SigGenIF(ds, in.Sky, fam) },
		"SigGen-IF, 2 workers": func() (*Fingerprint, error) { return SigGenIFParallel(ds, in.Sky, fam, 2) },
		"SigGen-IB":            func() (*Fingerprint, error) { return SigGenIB(in.Tree, ds, in.Sky, fam) },
		"SigGen-IB, 2 workers": func() (*Fingerprint, error) {
			return SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, 2)
		},
		"streaming pass": func() (*Fingerprint, error) {
			return SigGenIFStreamCtx(context.Background(), ds.Source(), in.Sky, pts, fam)
		},
	}
	for name, run := range runs {
		fp, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(fp.DomScore, want) {
			t.Fatalf("%s: scores %v, want %v", name, fp.DomScore, want)
		}
	}
}
