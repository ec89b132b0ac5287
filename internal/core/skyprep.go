package core

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
)

// skyPrep is the prepared skyline every signature generator tests rows
// against. Dominance is answered with word-wide set operations over the
// original skyline columns instead of one coordinate test per candidate.
//
// For each coordinate j the skyline is sorted by that coordinate, and a
// prefix table gives, for every k, the set of columns holding the k
// smallest keys. For a probe p,
//
//	LE_j = {s : s_j ≤ p_j} = prefix_j(#keys ≤ p_j)
//	LT_j = {s : s_j < p_j} = prefix_j(#keys < p_j)
//
// and the columns strictly dominating p — worse on no coordinate, better on
// at least one, exactly geom.Dominates — are AND_j LE_j ∩ OR_j LT_j. The OR
// term matters only when p ties some key on every coordinate: on a
// coordinate where no key equals p_j, LE_j = LT_j already makes every member
// of the AND strictly better there. Rectangles reuse the sets: a column
// fully dominates r iff it dominates r.Lo, and partially iff it dominates
// r.Hi but not r.Lo (geom.DomRelation), so D(Lo) and D(Hi) &^ D(Lo) classify
// every column at once. Sets are read out in ascending column order.
//
// NaN follows geom.Dominates as well: a comparison with NaN is false both
// ways, so a NaN key belongs to every LE_j and to no LT_j, and a NaN probe
// coordinate admits every column to LE_j and none to LT_j. NaN keys sort
// first, so they are prefix_j(nan_j) and LT_j = prefix_j(#keys < p_j) &^
// prefix_j(nan_j).
//
// Each coordinate's table holds m/stride + 1 checkpoint rows of ⌈m/64⌉
// words; row r is the prefix of r·stride entries, and a prefix between
// checkpoints is the row below it plus fewer than stride bits. The stride is
// the smallest that keeps a table within prefixTableWords (1 up to m ≈ 1000),
// so memory stays bounded as the skyline grows. A skyPrep is immutable once
// built and shared read-only by concurrent workers; per-goroutine scratch
// lives in a skyProbe.
type skyPrep struct {
	d, m   int
	words  int // ⌈m/64⌉: the length of one column set
	stride int // sorted entries between checkpoint rows
	axes   []skyAxis
}

// skyAxis is the skyline sorted by one coordinate.
type skyAxis struct {
	key  []uint64 // sortable coordinate values, ascending after the NaNs
	col  []int32  // original skyline column of each sorted entry
	nan  int      // number of NaN keys
	rows []uint64 // checkpoint row r: columns of entries [0, r·stride)
}

// prefixTableWords bounds one coordinate's checkpoint table (128 KiB), so
// the d tables of a skyline of a thousand points stay cache-resident.
const prefixTableWords = 1 << 14

// prepareSkyline builds the prepared skyline of the points of ds named by
// sky.
func prepareSkyline(ds *data.Dataset, sky []int) *skyPrep {
	return prepareSkylineFrom(ds.Dims(), len(sky), func(j int) []float64 {
		return ds.Point(sky[j])
	})
}

// prepareSkylineFrom builds the prepared skyline from an arbitrary accessor
// over m d-dimensional skyline points — the hook through which the streaming
// pipeline, which has no materialized Dataset, preps the skyline points it
// buffered during the BNL pass.
func prepareSkylineFrom(d, m int, point func(j int) []float64) *skyPrep {
	w := (m + 63) / 64
	stride := 1
	for (m/stride+1)*w > prefixTableWords {
		stride++
	}
	sp := &skyPrep{d: d, m: m, words: w, stride: stride, axes: make([]skyAxis, d)}
	keys := make([]uint64, m)
	cur := make([]uint64, w)
	for j := range sp.axes {
		ax := &sp.axes[j]
		ax.col = make([]int32, m)
		for c := range keys {
			ax.col[c] = int32(c)
			if v := point(c)[j]; v == v {
				keys[c] = sortable(v)
			} else {
				keys[c] = 0
				ax.nan++
			}
		}
		// NaN first, then ascending; the order among equal keys is
		// irrelevant because every prefix taken covers whole runs of ties.
		isNaN := func(c int32) bool { v := point(int(c))[j]; return v != v }
		sort.Slice(ax.col, func(a, b int) bool {
			na, nb := isNaN(ax.col[a]), isNaN(ax.col[b])
			if na != nb {
				return na
			}
			return keys[ax.col[a]] < keys[ax.col[b]]
		})
		ax.key = make([]uint64, m)
		for e, c := range ax.col {
			ax.key[e] = keys[c]
		}
		ax.rows = make([]uint64, (m/stride+1)*w)
		clear(cur)
		for e := 0; e <= m; e++ {
			if e%stride == 0 {
				copy(ax.rows[e/stride*w:], cur)
			}
			if e < m {
				c := ax.col[e]
				cur[c>>6] |= 1 << (uint32(c) & 63)
			}
		}
	}
	return sp
}

// prefix returns the columns of the first k entries of ax: a checkpoint row
// of the table, or that row plus the entries after it, built in tmp.
func (sp *skyPrep) prefix(ax *skyAxis, k int, tmp []uint64) []uint64 {
	w := sp.words
	if sp.stride == 1 {
		return ax.rows[k*w : (k+1)*w]
	}
	r := k / sp.stride
	row := ax.rows[r*w : (r+1)*w]
	base := r * sp.stride
	if base == k {
		return row
	}
	copy(tmp, row)
	for _, c := range ax.col[base:k] {
		tmp[c>>6] |= 1 << (uint32(c) & 63)
	}
	return tmp
}

// sortable maps a non-NaN float64 to a uint64 of the same order, with -0
// and +0 mapped alike, so the searches below compare integers. No image is
// 0, so the number of keys < k is the number of keys ≤ k−1.
func sortable(f float64) uint64 {
	u := math.Float64bits(f)
	if u == 1<<63 {
		u = 0 // -0 == +0
	}
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// countLE returns the number of keys ≤ x in ascending keys. The search is
// branch-free — each step is close to a coin flip, the worst case for a
// branch — and the compiler keeps a conditional move out of a loop whose
// value feeds a load address, so the step is masked with the borrow of an
// integer subtraction instead.
func countLE(keys []uint64, x uint64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		_, xLess := bits.Sub64(x, keys[base+half], 0)
		base += half & (int(xLess) - 1)
		n -= half
	}
	_, xLess := bits.Sub64(x, keys[base], 0)
	return base + 1 - int(xLess)
}

// skyProbe is one goroutine's handle on a shared skyPrep: the dominance
// kernels plus their scratch sets.
type skyProbe struct {
	*skyPrep
	lt             []int // per coordinate: #keys < p_j
	set, lo        []uint64
	strict, t1, t2 []uint64
}

// probe returns a new probe of sp for the calling goroutine.
func (sp *skyPrep) probe() *skyProbe {
	w := sp.words
	buf := make([]uint64, 5*w)
	return &skyProbe{
		skyPrep: sp,
		lt:      make([]int, sp.d),
		set:     buf[0*w : 1*w : 1*w],
		lo:      buf[1*w : 2*w : 2*w],
		strict:  buf[2*w : 3*w : 3*w],
		t1:      buf[3*w : 4*w : 4*w],
		t2:      buf[4*w : 5*w : 5*w],
	}
}

// dominatorSet writes into dst the set of columns strictly dominating p and
// reports whether that set is non-empty.
func (pr *skyProbe) dominatorSet(dst []uint64, p []float64) bool {
	sp := pr.skyPrep
	if sp.d == 0 || sp.m == 0 {
		clear(dst)
		return false
	}
	tieFree := false // some coordinate has LE_j = LT_j
	for j := range sp.axes {
		ax := &sp.axes[j]
		le, lt := sp.m, ax.nan
		if x := p[j]; x == x {
			k := sortable(x)
			le = ax.nan + countLE(ax.key[ax.nan:], k)
			lt = le
			if le > ax.nan && ax.key[le-1] == k {
				lt = ax.nan + countLE(ax.key[ax.nan:], k-1)
			}
		}
		if le == 0 {
			clear(dst)
			return false
		}
		row := sp.prefix(ax, le, pr.t1)
		if j == 0 {
			copy(dst, row)
		} else {
			for i := range dst {
				dst[i] &= row[i]
			}
		}
		pr.lt[j] = lt
		tieFree = tieFree || le == lt && ax.nan == 0
	}
	if !tieFree {
		strict := pr.strict
		clear(strict)
		for j := range sp.axes {
			ax := &sp.axes[j]
			row := sp.prefix(ax, pr.lt[j], pr.t1)
			if ax.nan == 0 {
				for i := range strict {
					strict[i] |= row[i]
				}
				continue
			}
			nan := sp.prefix(ax, ax.nan, pr.t2)
			for i := range strict {
				strict[i] |= row[i] &^ nan[i]
			}
		}
		for i := range dst {
			dst[i] &= strict[i]
		}
	}
	var nonEmpty uint64
	for _, v := range dst {
		nonEmpty |= v
	}
	return nonEmpty != 0
}

// classifyRect returns the set of columns fully dominating rect and reports
// whether any column partially dominates it, in which case the set is
// meaningless and the subtree must be opened. The relations are exactly
// geom.DomRelation's. The set is the probe's scratch, valid until its next
// call.
func (pr *skyProbe) classifyRect(rect geom.Rect) ([]uint64, bool) {
	pr.dominatorSet(pr.set, rect.Hi)
	pr.dominatorSet(pr.lo, rect.Lo)
	for i, v := range pr.set {
		if v&^pr.lo[i] != 0 {
			return pr.lo, true
		}
	}
	return pr.lo, false
}

// sigScratch is the pooled state of a row folder: the hash vector of the
// current row and its per-group minima, one slab of words holding the
// fold's domination counters and level sets, each column's level and the
// screened column list. Pooled so the serving path does not allocate a
// fresh set per fold.
type sigScratch struct {
	hv, gm   []uint32
	words    []uint64
	colLevel []uint8 // each column's bit length at the last level refresh
	cols     []int32
}

var sigScratchPool = sync.Pool{New: func() any { return new(sigScratch) }}

// getSigScratch returns pooled scratch with hv sized to t slots, gm to the
// grouped-update screen's group count, words to n zeroed words and colLevel
// and cols to m columns.
func getSigScratch(t, n, m int) *sigScratch {
	s := sigScratchPool.Get().(*sigScratch)
	s.hv = resize(s.hv, t)
	s.gm = resize(s.gm, minhash.GroupsFor(t))
	s.words = resize(s.words, n)
	clear(s.words)
	s.colLevel = resize(s.colLevel, m)
	s.cols = resize(s.cols, m)
	return s
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the scratch to the pool.
func (s *sigScratch) release() { sigScratchPool.Put(s) }

// levels is the number of level sets: bit lengths 0 through 32 of a 32-bit
// slot value.
const levels = 33

// rowFolder is the fold half of the Phase-1 row kernel, shared by every
// generator that scans rows. It takes each dominated row with the set of
// its dominating columns and
//
//   - counts the row into every column of the set at once, with bit-sliced
//     counters: plane p of a word of columns holds bit p of each column's
//     count, and adding a set ripples a carry through the planes. The
//     counts reach DomScore once, when the fold is flushed;
//   - hashes the row once, stepping the hash residues while row ids arrive
//     consecutively, and ANDs the set with a level set: level L holds the
//     columns whose slot maximum had bit length at least L at the last
//     refresh. A slot maximum shorter than the bit length of the row's
//     minimum hash value is below that minimum, so the row cannot lower the
//     column, and slot maxima only fall, so the level sets never drop a
//     column the row could lower;
//   - folds the columns that remain, read out in ascending order, with one
//     Matrix.FoldRow call, which applies the exact screen.
//
// Once signatures fill, few columns stay at the level of a row's minimum,
// so most pairs of a row and a dominating column are never read out.
// Not safe for concurrent use.
type rowFolder struct {
	mx     *minhash.Matrix
	score  []float64
	st     *minhash.Stepper
	sc     *sigScratch
	words  int      // ⌈m/64⌉: the length of one column set
	planes int      // counter planes per word
	counts []uint64 // word w's planes at counts[w*planes:(w+1)*planes]
	level  []uint64 // level set L at level[L*words:(L+1)*words]
	due    int      // rows to reach FoldRow before the next refreshLevels
}

// newRowFolder returns a folder into fp, which must be fresh, hashing with
// fam. rows bounds the rows the folder will count one at a time, which
// sizes its counter planes.
func newRowFolder(fam *minhash.Family, fp *Fingerprint, rows int) *rowFolder {
	m := len(fp.DomScore)
	w := (m + 63) / 64
	planes := max(bits.Len(uint(rows)), 1)
	sc := getSigScratch(fam.Size(), w*(planes+levels), m)
	f := &rowFolder{
		mx:     fp.Matrix,
		score:  fp.DomScore,
		st:     fam.Stepper(0, fam.Size()),
		sc:     sc,
		words:  w,
		planes: planes,
		counts: sc.words[: w*planes : w*planes],
		level:  sc.words[w*planes:],
		due:    max(m, 64),
	}
	// A fresh column's slots are all ∞, whose bit length is 32: every
	// column starts in every level set.
	for c := range m {
		sc.colLevel[c] = 32
		for l := 0; l < levels; l++ {
			f.level[l*w+c>>6] |= 1 << (c & 63)
		}
	}
	return f
}

// release returns the folder's pooled scratch; the fingerprint stays valid.
func (f *rowFolder) release() { f.sc.release() }

// fold counts and folds row id row into the columns of set, which must not
// be empty.
func (f *rowFolder) fold(set []uint64, row uint64) {
	for w, carry := range set {
		plane := f.counts[w*f.planes : (w+1)*f.planes]
		for p := 0; carry != 0; p++ {
			old := plane[p]
			plane[p] = old ^ carry
			carry &= old
		}
	}
	f.foldHashed(set, row)
}

// foldRun folds the count consecutive row ids base, base+1, … into the
// columns of set, all of which dominate every one of them, and adds count
// to their scores directly.
func (f *rowFolder) foldRun(set []uint64, base uint64, count int) {
	var nonEmpty uint64
	for _, v := range set {
		nonEmpty |= v
	}
	if nonEmpty == 0 {
		return
	}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			f.score[w<<6|bits.TrailingZeros64(word)] += float64(count)
		}
	}
	for r := uint64(0); r < uint64(count); r++ {
		f.foldHashed(set, base+r)
	}
}

// foldHashed hashes row and folds it into the columns of set that pass the
// level screen.
func (f *rowFolder) foldHashed(set []uint64, row uint64) {
	sc := f.sc
	minHv := f.st.HashGroupMin(sc.hv, row, sc.gm)
	l := bits.Len32(minHv)
	lv := f.level[l*f.words : (l+1)*f.words]
	cols := sc.cols[:0]
	for w, v := range set {
		for v &= lv[w]; v != 0; v &= v - 1 {
			cols = append(cols, int32(w<<6|bits.TrailingZeros64(v)))
		}
	}
	if len(cols) == 0 {
		return
	}
	f.mx.FoldRow(cols, sc.hv, sc.gm, minHv)
	if f.due--; f.due == 0 {
		f.refreshLevels()
	}
}

// refreshLevels moves every column whose slot maximum has lost bits since
// the last refresh down the level sets. It runs once per max(m, 64) rows
// that reach FoldRow, so it costs about one column check per such row; in
// between, a level set may still hold a column that has dropped out of
// it, which FoldRow's exact screen then rejects.
func (f *rowFolder) refreshLevels() {
	f.due = max(len(f.sc.colLevel), 64)
	for c, old := range f.sc.colLevel {
		nl := uint8(bits.Len32(f.mx.ColMax(c)))
		for l := int(nl) + 1; l <= int(old); l++ {
			f.level[l*f.words+c>>6] &^= 1 << (c & 63)
		}
		f.sc.colLevel[c] = nl
	}
}

// flush adds the counted rows to the fingerprint's domination scores and
// zeroes the counters.
func (f *rowFolder) flush() {
	for w := range f.words {
		for p, word := range f.counts[w*f.planes : (w+1)*f.planes] {
			for ; word != 0; word &= word - 1 {
				f.score[w<<6|bits.TrailingZeros64(word)] += float64(uint64(1) << p)
			}
		}
	}
	clear(f.counts)
}
