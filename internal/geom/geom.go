// Package geom provides the geometric kernel of the SkyDiver reproduction:
// strict Pareto dominance between points, minimization/maximization
// preferences, axis-aligned minimum bounding rectangles (MBRs), and the
// full/partial dominance relations between a point and a rectangle that the
// index-based signature generator (SigGen-IB) relies on.
//
// Throughout the package, and the repository, the canonical orientation is
// "smaller is better" on every dimension, matching Section 3.1 of the paper.
// User-facing code converts maximization preferences by negating the
// corresponding attribute (see Preferences.Canonicalize).
package geom

import (
	"fmt"
	"math"
)

// Pref states whether smaller or larger values are preferred on a dimension.
type Pref uint8

const (
	// Min prefers smaller attribute values (the canonical orientation).
	Min Pref = iota
	// Max prefers larger attribute values.
	Max
)

// String returns "min" or "max".
func (p Pref) String() string {
	if p == Max {
		return "max"
	}
	return "min"
}

// Preferences is a per-dimension preference vector.
type Preferences []Pref

// MinPrefs returns a preference vector of d minimization preferences.
func MinPrefs(d int) Preferences {
	return make(Preferences, d)
}

// Canonicalize rewrites point p in place so that minimization is preferred on
// every dimension: attributes with a Max preference are negated. It returns p
// for chaining.
func (prefs Preferences) Canonicalize(p []float64) []float64 {
	for i, pr := range prefs {
		if pr == Max {
			p[i] = -p[i]
		}
	}
	return p
}

// Validate returns an error unless the vector has exactly d entries, each of
// which is Min or Max.
func (prefs Preferences) Validate(d int) error {
	if len(prefs) != d {
		return fmt.Errorf("geom: preference vector has %d entries, dataset has %d dimensions", len(prefs), d)
	}
	for i, pr := range prefs {
		if pr != Min && pr != Max {
			return fmt.Errorf("geom: invalid preference %d on dimension %d", pr, i)
		}
	}
	return nil
}

// Dominates reports whether a strictly dominates b under minimization
// preferences: a is no worse than b on every dimension and strictly better on
// at least one. Both slices must have equal length.
func Dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// DominatesOrEqual reports whether a is no worse than b on every dimension
// (a ≼ b). Unlike Dominates it accepts equal points.
func DominatesOrEqual(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Equal reports componentwise equality.
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UpperCorner writes the componentwise maximum of a and b into dst and
// returns dst. A point r is dominated by both a and b exactly when it lies in
// the dominance region of this corner (modulo strictness on the boundary),
// which is how the exact-Jaccard oracle computes |Γ(a) ∩ Γ(b)|.
func UpperCorner(dst, a, b []float64) []float64 {
	for i := range a {
		dst[i] = math.Max(a[i], b[i])
	}
	return dst
}

// L1 returns the L1 norm (sum of coordinates) of p. It is the BBS "mindist"
// key for minimization skylines and the SFS presort key.
func L1(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// Rect is an axis-aligned rectangle given by its lower-left (best) and
// upper-right (worst) corners under minimization preferences.
type Rect struct {
	Lo, Hi []float64
}

// NewRect allocates a d-dimensional rectangle initialized to the empty
// reversed rectangle (+inf lows, -inf highs), ready for ExpandPoint/ExpandRect.
func NewRect(d int) Rect {
	r := Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
	r.Reset()
	return r
}

// Reset re-initializes r to the empty reversed rectangle.
func (r Rect) Reset() {
	for i := range r.Lo {
		r.Lo[i] = math.Inf(1)
		r.Hi[i] = math.Inf(-1)
	}
}

// PointRect returns the degenerate rectangle covering exactly p. The returned
// rectangle aliases p; callers must not mutate it.
func PointRect(p []float64) Rect {
	return Rect{Lo: p, Hi: p}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	return Rect{Lo: lo, Hi: hi}
}

// Set overwrites r's corners with o's, which must have r's dimensionality.
func (r Rect) Set(o Rect) {
	copy(r.Lo, o.Lo)
	copy(r.Hi, o.Hi)
}

// ExpandPoint grows r to cover point p.
func (r Rect) ExpandPoint(p []float64) {
	for i, v := range p {
		if v < r.Lo[i] {
			r.Lo[i] = v
		}
		if v > r.Hi[i] {
			r.Hi[i] = v
		}
	}
}

// ExpandRect grows r to cover o.
func (r Rect) ExpandRect(o Rect) {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p []float64) bool {
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o overlap (boundaries included).
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > o.Hi[i] || r.Hi[i] < o.Lo[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r. Degenerate rectangles have
// zero area.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of edge lengths of r (the R*-tree split heuristic
// uses it as a perimeter surrogate).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// EnlargedArea returns the area of r expanded to cover o, without mutating r.
func (r Rect) EnlargedArea(o Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Min(r.Lo[i], o.Lo[i])
		hi := math.Max(r.Hi[i], o.Hi[i])
		a *= hi - lo
	}
	return a
}

// OverlapArea returns the volume of the intersection of r and o, or 0 when
// they are disjoint.
func (r Rect) OverlapArea(o Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], o.Lo[i])
		hi := math.Min(r.Hi[i], o.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center writes the rectangle's center into dst and returns it.
func (r Rect) Center(dst []float64) []float64 {
	for i := range r.Lo {
		dst[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return dst
}

// MinDistL1 returns the L1 norm of the lower-left corner: the minimum
// possible L1 key of any point inside r. BBS orders its priority queue by it.
func (r Rect) MinDistL1() float64 {
	return L1(r.Lo)
}

// DomRel classifies how a skyline point p relates to rectangle r with respect
// to dominance, following Section 4.1.2:
//
//   - DomFull: p dominates the lower-left corner of r, hence every point that
//     can lie inside r. The subtree can be processed wholesale.
//   - DomPartial: p does not fully dominate r but dominates its upper-right
//     corner, so p dominates some — but possibly not all — points inside r.
//     The subtree must be opened.
//   - DomNone: p does not dominate the upper-right corner; nothing inside r
//     is dominated by p.
type DomRel uint8

// Dominance relation classifications for DomRelation.
const (
	DomNone DomRel = iota
	DomPartial
	DomFull
)

// String names the relation for diagnostics.
func (d DomRel) String() string {
	switch d {
	case DomFull:
		return "full"
	case DomPartial:
		return "partial"
	default:
		return "none"
	}
}

// DomRelation classifies the dominance relation between point p and
// rectangle r. Full dominance requires p to strictly dominate the lower-left
// corner so that the wholesale signature update of SigGen-IB remains exact
// even for points lying on the rectangle boundary.
func DomRelation(p []float64, r Rect) DomRel {
	if Dominates(p, r.Lo) {
		return DomFull
	}
	if Dominates(p, r.Hi) {
		return DomPartial
	}
	return DomNone
}
