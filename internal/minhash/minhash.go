// Package minhash implements min-wise hashing over the (implicit) domination
// matrix, Phase 1 of the SkyDiver framework (Section 4.1).
//
// Each skyline point's dominated set Γ(p) — a column of the n×m domination
// matrix — is summarized by a signature of t slots. Slot i holds the minimum
// value of hash function h_i over the row ids contained in the column, where
// h_i(x) = (a_i·x + b_i) mod P for a prime P larger than the number of rows.
// The probability that two columns agree on a slot equals their Jaccard
// similarity, so the fraction of agreeing slots estimates Js.
//
// As in the paper, the linear congruential family is not exactly min-wise
// independent but is the standard approximation that works well in practice.
// P is the Mersenne prime 2^61−1, large enough for any dataset this
// repository handles; slot values are folded to 32 bits, matching the
// 4-bytes-per-slot memory accounting of Section 5 (Figure 13) at a 2^-32
// collision risk.
package minhash

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"unsafe"
)

// mersenne61 is the modulus of the hash family.
const mersenne61 = (1 << 61) - 1

// emptySlot is the value of a slot no row has been hashed into (∞ in the
// paper's pseudocode, Figure 3 line 1).
const emptySlot = math.MaxUint32

// Family is a set of t approximately min-wise independent hash functions.
type Family struct {
	a, b []uint64
}

// NewFamily draws t hash functions with coefficients in [1, P-1],
// deterministically from the seed.
func NewFamily(t int, seed int64) (*Family, error) {
	if t <= 0 {
		return nil, fmt.Errorf("minhash: non-positive signature size %d", t)
	}
	r := rand.New(rand.NewSource(seed))
	f := &Family{a: make([]uint64, t), b: make([]uint64, t)}
	for i := 0; i < t; i++ {
		f.a[i] = 1 + uint64(r.Int63n(mersenne61-1))
		f.b[i] = 1 + uint64(r.Int63n(mersenne61-1))
	}
	return f, nil
}

// Size returns the number of hash functions (the signature size t).
func (f *Family) Size() int { return len(f.a) }

// HashAll evaluates every hash function on row id x, writing the 32-bit
// folded values into dst (which must have length Size). SigGen computes this
// once per data row and reuses it for all dominating skyline columns.
func (f *Family) HashAll(dst []uint32, x uint64) {
	for i := range f.a {
		dst[i] = hashOne(f.a[i], f.b[i], x)
	}
}

// HashAllMin is HashAll returning additionally the minimum of the written
// values. The signature generators pair it with UpdateColumnBounded: one
// extra comparison per slot here lets every dominating column first test the
// row against its slot-max bound and skip the whole t-slot min-fold when no
// slot could possibly improve — the short-circuit that makes Phase 1 scale
// with the number of *effective* updates instead of the raw pair count.
func (f *Family) HashAllMin(dst []uint32, x uint64) uint32 {
	minv := uint32(math.MaxUint32)
	for i := range f.a {
		v := hashOne(f.a[i], f.b[i], x)
		dst[i] = v
		if v < minv {
			minv = v
		}
	}
	return minv
}

// Hash evaluates hash function i on row id x.
func (f *Family) Hash(i int, x uint64) uint32 {
	return hashOne(f.a[i], f.b[i], x)
}

// Stepper evaluates hash functions [lo, hi) of a family on row ids that
// mostly arrive in ascending consecutive order, as they do in every
// row-scanning signature generator. Since h_i(x+1) = h_i(x) + a_i mod P,
// it carries the residues (a_i·x + b_i) mod P from row to row: the next
// consecutive row costs one addition and one conditional subtraction per
// slot instead of a 128-bit multiply, and any other row id seeks with one
// mulmod61 per slot. Every value equals Family.Hash exactly. A Stepper is
// not safe for concurrent use.
type Stepper struct {
	a, b   []uint64 // coefficients of the stepper's hash functions
	res    []uint64 // res[i] = (a[i]·x + b[i]) mod P at row x
	x      uint64
	live   bool  // res holds row x
	bounds []int // slot-group boundaries of HashGroupMin, GroupsFor(hi−lo)+1
}

// Stepper returns a stepper over hash functions [lo, hi).
func (f *Family) Stepper(lo, hi int) *Stepper {
	n := hi - lo
	g := GroupsFor(n)
	bounds := make([]int, g+1)
	for k := 1; k <= g; k++ {
		bounds[k] = k * n / g
	}
	return &Stepper{a: f.a[lo:hi:hi], b: f.b[lo:hi:hi], res: make([]uint64, n), bounds: bounds}
}

// HashGroupMin writes the stepper's hash values of row x into dst, the
// minima of the slot groups defined by GroupsFor into gm (len
// GroupsFor(len(dst))), and returns the overall minimum. FoldRow uses the
// group minima to skip every slot group the row cannot improve. When x
// follows the stepper's current row, each slot's residue steps, folds and
// enters its group minimum in one pass; any other row seeks.
func (s *Stepper) HashGroupMin(dst []uint32, x uint64, gm []uint32) uint32 {
	step := s.live && x == s.x+1
	s.x, s.live = x, true
	minv := uint32(math.MaxUint32)
	for k := range gm {
		lo, hi := s.bounds[k], s.bounds[k+1]
		res, a, out := s.res[lo:hi], s.a[lo:hi], dst[lo:hi]
		a, out = a[:len(res)], out[:len(res)]
		gv := uint32(math.MaxUint32)
		if step {
			for i, r := range res {
				r += a[i]
				if r >= mersenne61 {
					r -= mersenne61
				}
				res[i] = r
				v := fold32(r)
				out[i] = v
				gv = min(gv, v)
			}
		} else {
			b := s.b[lo:hi][:len(res)]
			for i := range res {
				r := residue(a[i], b[i], x)
				res[i] = r
				v := fold32(r)
				out[i] = v
				gv = min(gv, v)
			}
		}
		gm[k] = gv
		minv = min(minv, gv)
	}
	return minv
}

// hashOne computes (a·x + b) mod P folded to 32 bits.
func hashOne(a, b, x uint64) uint32 {
	return fold32(residue(a, b, x))
}

// residue returns (a·x + b) mod P for b < P.
func residue(a, b, x uint64) uint64 {
	v := mulmod61(a, x) + b
	if v >= mersenne61 {
		v -= mersenne61
	}
	return v
}

// fold32 folds a residue in [0, P) to its 32-bit slot value. Residues are
// uniform in [0, P), so keeping the low 32 bits preserves uniformity —
// except that the all-ones word is reserved: it is the emptySlot ∞
// sentinel, and a row legitimately hashing there would make its column
// indistinguishable from "dominates nothing", skewing EstimateJs for
// near-empty columns. Such a value is clamped to MaxUint32−1 (a 2⁻³² bias,
// well below the estimator's own variance).
func fold32(v uint64) uint32 {
	h := uint32(v)
	if h == emptySlot {
		h--
	}
	return h
}

// mulmod61 returns a·x mod 2^61−1 without overflow, using the identity
// 2^61 ≡ 1 (mod P): split the 122-bit product into 61-bit limbs and add them.
func mulmod61(a, x uint64) uint64 {
	hi, lo := mul64(a, x)
	// product = hi·2^64 + lo; 2^64 mod P = 8.
	sum := hi*8 + (lo >> 61) + (lo & mersenne61)
	for sum >= mersenne61 {
		sum -= mersenne61
	}
	return sum
}

// mul64 returns the 128-bit product of a and b as (hi, lo), via the
// bits.Mul64 intrinsic — a single widening multiply on amd64/arm64, and the
// dominant instruction of the whole hash family.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Matrix is the signature matrix M̂: one t-slot signature per skyline point,
// stored column-major so a point's signature is contiguous.
type Matrix struct {
	t, cols int
	groups  int
	sig     []uint32
	// colMax[c] caches the maximum slot value of column c. A row whose
	// minimum hash value is ≥ colMax[c] cannot lower any slot (every hv[i] ≥
	// min(hv) ≥ colMax[c] ≥ col[i]), so UpdateColumnBounded skips the whole
	// t-slot fold. Once a column has absorbed k rows its slots sit near P/k,
	// so for the large columns that dominate Phase-1 runtime almost every
	// later row is rejected by this single comparison.
	colMax []uint32
	// groupMax refines colMax to GroupsFor(t) slot groups per column
	// (groupMax[c*groups+g] bounds group g), letting FoldRow skip the groups
	// a row cannot improve even when the whole-column screen passes.
	// colMax[c] is always the maximum of column c's group maxima.
	groupMax []uint32
	// bound[g] is the first slot of group g; bound[groups] = t.
	bound [maxUpdateGroups + 1]int
}

// maxUpdateGroups is the slot-group count of the grouped fold screen. Eight
// groups cut the folded slots of an admitted row by roughly the same factor
// while costing eight extra comparisons per admitted pair; beyond that the
// screen overhead grows faster than the fold shrinks.
const maxUpdateGroups = 8

// GroupsFor returns the number of slot groups the grouped update screen
// uses for signature size t (callers size HashGroupMin's gm with it).
func GroupsFor(t int) int {
	if t < maxUpdateGroups {
		return t
	}
	return maxUpdateGroups
}

// NewMatrix creates a t×cols signature matrix with all slots empty (∞).
func NewMatrix(t, cols int) *Matrix {
	sig := make([]uint32, t*cols)
	for i := range sig {
		sig[i] = emptySlot
	}
	groups := GroupsFor(t)
	colMax := make([]uint32, cols)
	groupMax := make([]uint32, cols*groups)
	for i := range colMax {
		colMax[i] = emptySlot
	}
	for i := range groupMax {
		groupMax[i] = emptySlot
	}
	m := &Matrix{t: t, cols: cols, groups: groups, sig: sig, colMax: colMax, groupMax: groupMax}
	for g := range groups + 1 {
		m.bound[g] = g * t / groups
	}
	return m
}

// T returns the signature size.
func (m *Matrix) T() int { return m.t }

// Cols returns the number of signatures (skyline points).
func (m *Matrix) Cols() int { return m.cols }

// Column returns the signature of column c (read-only view).
func (m *Matrix) Column(c int) []uint32 {
	return m.sig[c*m.t : (c+1)*m.t : (c+1)*m.t]
}

// UpdateColumn folds one row's hash values hv into column c's signature,
// keeping the per-slot minima (Figure 3, UpdateMatrix). hv may be shorter
// than t (the untouched tail keeps its values); the column's slot-max
// bounds are refreshed either way.
func (m *Matrix) UpdateColumn(c int, hv []uint32) {
	col := m.sig[c*m.t : (c+1)*m.t]
	n := len(hv)
	if n > len(col) {
		n = len(col)
	}
	changed := false
	for i := 0; i < n; i++ {
		if hv[i] < col[i] {
			col[i] = hv[i]
			changed = true
		}
	}
	if !changed {
		// Untouched column, bounds still exact — and the common case even for
		// folds that pass the slot-max screen, so it skips the max recompute.
		return
	}
	m.refreshBounds(c)
}

// refreshBounds recomputes column c's group maxima and whole-column maximum
// from its current slots.
func (m *Matrix) refreshBounds(c int) {
	col := m.sig[c*m.t : (c+1)*m.t]
	gmax := m.groupMax[c*m.groups : (c+1)*m.groups]
	for g := range gmax {
		gmax[g] = maxOf(col[m.bound[g]:m.bound[g+1]])
	}
	m.refreshColMax(c)
}

// UpdateColumnBounded is UpdateColumn for callers that know min(hv) — i.e.
// the signature generators, which compute it once per row via HashAllMin.
// When that minimum cannot beat the column's current worst slot the fold is
// skipped entirely; the resulting matrix is bit-identical to folding every
// row unconditionally.
func (m *Matrix) UpdateColumnBounded(c int, hv []uint32, minHv uint32) {
	if minHv >= m.colMax[c] {
		return
	}
	m.UpdateColumn(c, hv)
}

// ColMax returns column c's slot maximum, the bound FoldRow screens a row's
// minimum hash value against: a row whose minimum is at least ColMax(c)
// cannot lower any slot of column c.
func (m *Matrix) ColMax(c int) uint32 { return m.colMax[c] }

// FoldRow folds one row's hash values into every column of cols with one
// call, given the per-group minima gm of hv (from HashGroupMin; len(gm)
// must equal GroupsFor(t)). A column is admitted when min(hv) is below its
// slot maximum. Only the slots of hv below the largest slot maximum of the
// admitted columns can lower any of them, and once signatures fill there
// are few: when they number at most 2·GroupsFor(t) they are listed once per
// row, on the stack, and each admitted column folds just them. When they
// are more, the slots below the largest group maximum of their own group
// are listed instead, under the same limit: one slot whose values fall on
// every row (hash seed 4's slot 74) holds up the slot maxima of every
// column, but only its own group's maxima. Otherwise each admitted column
// folds the slot groups the row can improve (a skipped group satisfies
// min(hv[group]) ≥ groupMax ≥ every slot in it). Either way the slots and
// the bounds end bit-identical to UpdateColumn once per column.
func (m *Matrix) FoldRow(cols []int32, hv []uint32, gm []uint32, minHv uint32) {
	var rs rowSlots
	sparse, admitted := rs.list(m, cols, hv, gm, minHv)
	switch {
	case !admitted:
	case sparse:
		m.foldSlots(cols, gm, minHv, &rs)
	default:
		for _, c := range cols {
			if minHv < m.colMax[c] {
				m.foldGroups(int(c), hv, gm)
			}
		}
	}
}

// rowSlots lists the slots of a row FoldRow's sparse path folds: ascending,
// at most 2·GroupsFor(t) of them, with slot group g's at
// idx[bound[g]:bound[g+1]]. idx has room for one more, which gather writes
// before it counts.
type rowSlots struct {
	idx    [2*maxUpdateGroups + 1]int32
	val    [2*maxUpdateGroups + 1]uint32 // hv[idx[k]]
	bound  [maxUpdateGroups + 1]uint8
	listed uint32 // bit g: group g has a listed slot
}

// list lists the slots of hv that can lower a column of cols admitted by
// FoldRow's screen, as FoldRow describes, and reports whether the list is
// within the limit and whether any column is admitted.
func (rs *rowSlots) list(m *Matrix, cols []int32, hv, gm []uint32, minHv uint32) (sparse, admitted bool) {
	var top uint32 // largest slot maximum of an admitted column; 0 if none
	for _, c := range cols {
		cm := m.colMax[c]
		_, admit := bits.Sub32(minHv, cm, 0)
		top = max(top, cm&-admit)
	}
	if top == 0 {
		return false, false
	}
	var tops [maxUpdateGroups]uint32
	for g := range tops {
		tops[g] = top
	}
	if rs.gather(m, hv, gm, &tops) {
		return true, true
	}
	tops = [maxUpdateGroups]uint32{}
	groups := m.groups
	for _, c := range cols {
		if minHv < m.colMax[c] {
			for g, v := range m.groupMax[int(c)*groups : int(c+1)*groups] {
				tops[g] = max(tops[g], v)
			}
		}
	}
	*rs = rowSlots{}
	return rs.gather(m, hv, gm, &tops), true
}

// gather lists the slots of hv below their group's bound in tops and
// reports whether they number at most 2·GroupsFor(t). gm holds hv's group
// minima. Whether a slot is below a large bound is a coin flip, so every
// slot is written and counted without a branch.
func (rs *rowSlots) gather(m *Matrix, hv, gm []uint32, tops *[maxUpdateGroups]uint32) bool {
	groups := m.groups
	n, limit := 0, 2*groups
	for g := 0; g < groups; g++ {
		if top := tops[g]; gm[g] < top {
			lo, hi := m.bound[g], m.bound[g+1]
			for i, v := range hv[lo:hi] {
				rs.idx[n], rs.val[n] = int32(lo+i), v
				_, below := bits.Sub32(v, top, 0)
				if n += int(below); n > limit {
					return false
				}
			}
			rs.listed |= 1 << g
		}
		rs.bound[g+1] = uint8(n)
	}
	return true
}

// foldSlots folds the listed slots of a row into every column of cols the
// screen admits, group by group: a group whose row minimum gm[g] cannot
// beat the column's group maximum is skipped, as in foldGroups. Lowering a
// slot below its group's maximum leaves the maximum as it was, so a group's
// bound is recomputed only when a lowered slot held it.
func (m *Matrix) foldSlots(cols []int32, gm []uint32, minHv uint32, rs *rowSlots) {
	t, groups := m.t, m.groups
	for _, c := range cols {
		if minHv >= m.colMax[c] {
			continue
		}
		col := m.sig[int(c)*t : int(c+1)*t]
		gmax := m.groupMax[int(c)*groups : int(c+1)*groups]
		var stale uint32 // bit g: a lowered slot held group g's maximum
		for mask := rs.listed; mask != 0; mask &= mask - 1 {
			g := bits.TrailingZeros32(mask)
			gmx := gmax[g]
			if gm[g] >= gmx {
				continue
			}
			for k := rs.bound[g]; k < rs.bound[g+1]; k++ {
				i := rs.idx[k]
				if v, old := rs.val[k], col[i]; v < old {
					col[i] = v
					if old == gmx {
						stale |= 1 << g
					}
				}
			}
		}
		if stale == 0 {
			continue
		}
		for ; stale != 0; stale &= stale - 1 {
			g := bits.TrailingZeros32(stale)
			gmax[g] = maxOf(col[m.bound[g]:m.bound[g+1]])
		}
		m.refreshColMax(int(c))
	}
}

// foldGroups is the grouped fold of a row admitted by the column screen:
// it folds the slot groups the row can improve. As in foldSlots, a group's
// bound is recomputed only when a lowered slot held it.
func (m *Matrix) foldGroups(c int, hv []uint32, gm []uint32) {
	t, groups := m.t, m.groups
	col := m.sig[c*t : (c+1)*t]
	gmax := m.groupMax[c*groups : (c+1)*groups]
	anyStale := false
	for g := 0; g < groups; g++ {
		gmx := gmax[g]
		if gm[g] >= gmx {
			continue
		}
		lo, hi := m.bound[g], m.bound[g+1]
		stale := false
		for i := lo; i < hi; i++ {
			if v, old := hv[i], col[i]; v < old {
				col[i] = v
				if old == gmx {
					stale = true
				}
			}
		}
		if !stale {
			continue
		}
		gmax[g] = maxOf(col[lo:hi])
		anyStale = true
	}
	if anyStale {
		m.refreshColMax(c)
	}
}

// refreshColMax recomputes column c's slot maximum from its group maxima.
func (m *Matrix) refreshColMax(c int) {
	m.colMax[c] = maxOf(m.groupMax[c*m.groups : (c+1)*m.groups])
}

// maxOf returns the largest value of s, 0 if s is empty. It keeps two
// running maxima, so neighbouring values do not wait on each other.
func maxOf(s []uint32) uint32 {
	var a, b uint32
	for len(s) >= 2 {
		a, b = max(a, s[0]), max(b, s[1])
		s = s[2:]
	}
	if len(s) == 1 {
		a = max(a, s[0])
	}
	return max(a, b)
}

// Clone returns a deep copy of the matrix: the incremental-maintenance path
// patches a private copy of a cached signature matrix (copy-on-write), so the
// original — shared by pointer with every query that already holds it — is
// never mutated.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{t: m.t, cols: m.cols, groups: m.groups, bound: m.bound}
	c.sig = append([]uint32(nil), m.sig...)
	c.colMax = append([]uint32(nil), m.colMax...)
	c.groupMax = append([]uint32(nil), m.groupMax...)
	return c
}

// ColumnEqual reports whether column c of m holds the same slots as column
// oc of o. The columns are compared as bytes, one memequal instead of a
// slot loop: the LSH carry compares every column of a migrated matrix with
// its origin, and most are unchanged.
func (m *Matrix) ColumnEqual(c int, o *Matrix, oc int) bool {
	a, b := m.Column(c), o.Column(oc)
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a)),
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), 4*len(b)))
}

// ResetColumn empties column c: all slots and its screen bounds return to the
// ∞ sentinel, as if no row had ever been folded into it. The incremental
// delete path resets a column before re-folding its surviving rows.
func (m *Matrix) ResetColumn(c int) {
	col := m.sig[c*m.t : (c+1)*m.t]
	for i := range col {
		col[i] = emptySlot
	}
	gmax := m.groupMax[c*m.groups : (c+1)*m.groups]
	for i := range gmax {
		gmax[i] = emptySlot
	}
	m.colMax[c] = emptySlot
}

// InsertColumn grows the matrix by one empty column at position at (existing
// columns at and beyond shift right). The incremental skyline-maintenance
// path uses it when a point joins the skyline: columns track skyline order,
// so a promotion splices its signature into place.
func (m *Matrix) InsertColumn(at int) {
	if at < 0 || at > m.cols {
		panic("minhash: InsertColumn position out of range")
	}
	t, g := m.t, m.groups
	m.sig = append(m.sig, make([]uint32, t)...)
	copy(m.sig[(at+1)*t:], m.sig[at*t:m.cols*t])
	m.colMax = append(m.colMax, 0)
	copy(m.colMax[at+1:], m.colMax[at:m.cols])
	m.groupMax = append(m.groupMax, make([]uint32, g)...)
	copy(m.groupMax[(at+1)*g:], m.groupMax[at*g:m.cols*g])
	m.cols++
	m.ResetColumn(at)
}

// RemoveColumns drops the columns at the given positions (which must be
// sorted ascending and in range), compacting the survivors left. The
// incremental path uses it when skyline members are demoted by an insert or
// evicted by a delete.
func (m *Matrix) RemoveColumns(at []int) {
	if len(at) == 0 {
		return
	}
	t, g := m.t, m.groups
	w, r := at[0], 0 // write cursor in columns; read cursor in at
	for c := at[0]; c < m.cols; c++ {
		if r < len(at) && at[r] == c {
			r++
			continue
		}
		copy(m.sig[w*t:(w+1)*t], m.sig[c*t:(c+1)*t])
		m.colMax[w] = m.colMax[c]
		copy(m.groupMax[w*g:(w+1)*g], m.groupMax[c*g:(c+1)*g])
		w++
	}
	if r != len(at) {
		panic("minhash: RemoveColumns positions not sorted ascending in range")
	}
	m.cols = w
	m.sig = m.sig[:w*t]
	m.colMax = m.colMax[:w]
	m.groupMax = m.groupMax[:w*g]
}

// ColumnMatchesAny reports whether any slot of column c currently equals the
// corresponding value in hv. When a row is removed from a column's set, its
// hash values can only have mattered where they achieved the slot minimum;
// a false answer proves the column's slots are unchanged by the removal, so
// the incremental delete path skips the recompute. (True is conservative:
// another row may have tied the slot.)
func (m *Matrix) ColumnMatchesAny(c int, hv []uint32) bool {
	col := m.sig[c*m.t : (c+1)*m.t]
	for i, v := range hv {
		if v == col[i] {
			return true
		}
	}
	return false
}

// RemoveRow repairs column c after a row left the column's set: hv holds
// the departed row's hash values and rest the ids of the rows that remain.
// Only the slots the row held (where the column equals hv) can change — any
// other slot's minimum belongs to a remaining row — and each is recomputed
// as the minimum of its hash function over rest. The column ends up exactly
// as a refold of rest would leave it, at |rest| hashes per held slot
// instead of t.
func (m *Matrix) RemoveRow(c int, hv []uint32, fam *Family, rest []int) {
	col := m.sig[c*m.t : (c+1)*m.t]
	for i, v := range hv {
		if col[i] != v {
			continue
		}
		nv := uint32(emptySlot)
		for _, r := range rest {
			nv = min(nv, fam.Hash(i, uint64(r)))
		}
		col[i] = nv
	}
	m.refreshBounds(c)
}

// EstimateJs returns the estimated Jaccard similarity between columns i and
// j: the fraction of slots on which their signatures agree. Two slots that
// are both empty (neither point dominates anything hashed so far) agree —
// two empty dominated sets are identical.
//
// The agreement count runs through the SWAR kernel countEqual; the result is
// exactly the scalar count (integer arithmetic, no reordering hazard).
func (m *Matrix) EstimateJs(i, j int) float64 {
	a, b := m.Column(i), m.Column(j)
	return float64(countEqual(a, b)) / float64(m.t)
}

// swarMinSlots is the signature size below which countEqual dispatches to
// the plain scalar loop: the word-reinterpreting setup (two unsafe slice
// headers plus alignment checks) costs about as much as comparing a dozen
// slots, so tiny signatures were measurably *slower* through the SWAR path
// than through the loop it replaces. Sixteen slots is past the crossover on
// current x86 and arm64 and still below the paper's smallest signature
// (t = 20), so real workloads always take the word path.
const swarMinSlots = 16

// countEqual returns the number of positions where a and b hold the same
// value. a and b must have equal length.
//
// Fast path: when both slices are 8-byte aligned (always the case for even
// signature sizes, including the paper's 20–400 range), slots are compared
// two at a time through 64-bit words — halving the loads, which bound the
// scalar loop — with a branch-free SWAR zero-lane test: for x = wa^wb, a
// 32-bit lane of x is zero exactly where the slots agree, and
// ^((x&^hi)+^hi|x)&hi leaves one sign bit per agreeing lane. Four words (8
// slots) fold into a single popcount by parking each word's sign bits on
// adjacent bit positions. Branch-free matters here: slot agreement is a coin
// flip at mid-range similarities, the worst case for a branchy loop. Small
// (< swarMinSlots) and unaligned inputs dispatch to the scalar loop, where
// the word setup would cost more than it saves.
func countEqual(a, b []uint32) int {
	n := len(a)
	b = b[:n] // one bound for the whole loop
	eq := 0
	s := 0
	if n >= swarMinSlots && uintptr(unsafe.Pointer(&a[0]))&7 == 0 && uintptr(unsafe.Pointer(&b[0]))&7 == 0 {
		nw := n / 2
		wa := unsafe.Slice((*uint64)(unsafe.Pointer(&a[0])), nw)
		wb := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), nw)
		const hi = 0x8000000080000000
		const lo7 = 0x7FFFFFFF7FFFFFFF
		w := 0
		for ; w+4 <= nw; w += 4 {
			x0 := wa[w] ^ wb[w]
			x1 := wa[w+1] ^ wb[w+1]
			x2 := wa[w+2] ^ wb[w+2]
			x3 := wa[w+3] ^ wb[w+3]
			z0 := ^((x0 & lo7) + lo7 | x0) & hi
			z1 := ^((x1 & lo7) + lo7 | x1) & hi
			z2 := ^((x2 & lo7) + lo7 | x2) & hi
			z3 := ^((x3 & lo7) + lo7 | x3) & hi
			eq += bits.OnesCount64(z0 | z1>>1 | z2>>2 | z3>>3)
		}
		for ; w < nw; w++ {
			x := wa[w] ^ wb[w]
			z := ^((x & lo7) + lo7 | x) & hi
			eq += bits.OnesCount64(z)
		}
		s = nw * 2
	}
	for ; s < n; s++ {
		if a[s] == b[s] {
			eq++
		}
	}
	return eq
}

// EstimateJd returns the estimated Jaccard distance 1 − Js between columns.
func (m *Matrix) EstimateJd(i, j int) float64 {
	return 1 - m.EstimateJs(i, j)
}

// MaxFingerprintBytes caps the memory one requested fingerprint may take.
// Signature size is a request parameter of the serving daemons, so without a
// cap one request could ask for a t×m matrix larger than the host.
const MaxFingerprintBytes = 256 << 20

// FingerprintFits reports whether a t-slot fingerprint of m columns stays
// within MaxFingerprintBytes, measured as 4·t·(m+4) bytes: the t×m matrix at
// 4 bytes a slot plus the family's 2·t 64-bit coefficients. Non-positive t
// always fits; NewFamily rejects it.
func FingerprintFits(t, m int) bool {
	return t <= MaxFingerprintBytes/(4*(m+4))
}

// MemoryBytes returns the signature storage footprint (4 bytes per slot),
// the quantity plotted in Figure 13(a)-(b).
func (m *Matrix) MemoryBytes() int { return 4 * len(m.sig) }
