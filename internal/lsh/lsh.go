// Package lsh implements the locality-sensitive-hashing variant of
// SkyDiver's selection phase (Section 4.2.2).
//
// The signature matrix is split into ζ zones of r rows each (ζ·r = t). For
// every zone, each skyline point's signature fragment is hashed into one of
// B buckets; the point's LSH representation is the ζ·B-dimensional bit
// vector with exactly one set bit per zone (||bv||₁ = ζ). Two points
// colliding in a zone share that zone's bucket bit, so the number of zones
// where they disagree equals half their Hamming distance; the selection
// phase uses the Hamming distance of the bit vectors as its (metric)
// diversity measure.
//
// The zone count is driven by a similarity threshold ξ via the standard
// banding sigmoid: ξ ≈ (1/ζ)^(1/r). Larger thresholds mean fewer zones,
// hence smaller bit vectors — the memory/accuracy trade-off of Figure 13.
package lsh

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"skydiver/internal/minhash"
)

// Params configures the banding scheme.
type Params struct {
	// Zones is ζ, the number of bands the signature is split into.
	Zones int
	// Rows is r, the number of signature slots per zone; Zones·Rows must
	// equal the signature size.
	Rows int
	// Buckets is B, the number of hash buckets per zone.
	Buckets int
}

// Validate checks the parameters against a signature size t.
func (p Params) Validate(t int) error {
	if p.Zones <= 0 || p.Rows <= 0 || p.Buckets <= 0 {
		return fmt.Errorf("lsh: non-positive parameter in %+v", p)
	}
	if p.Zones*p.Rows != t {
		return fmt.Errorf("lsh: zones(%d)·rows(%d) != signature size %d", p.Zones, p.Rows, t)
	}
	return nil
}

// Threshold returns the similarity threshold ξ ≈ (1/ζ)^(1/r) at which the
// collision sigmoid 1-(1-s^r)^ζ crosses steeply.
func (p Params) Threshold() float64 {
	return math.Pow(1/float64(p.Zones), 1/float64(p.Rows))
}

// CollisionProbability returns the probability 1-(1-s^r)^ζ that two points
// with Jaccard similarity s collide in at least one zone.
func (p Params) CollisionProbability(s float64) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Zones))
}

// ChooseParams picks the factorization ζ·r = t whose threshold (1/ζ)^(1/r)
// is closest to the requested ξ, with B buckets per zone. It returns an
// error when t has no factorization with ζ ≥ 2 and r ≥ 1 (t must not be 1
// or prime-free of divisors — any t ≥ 2 works since ζ = t, r = 1 is valid).
func ChooseParams(t int, xi float64, buckets int) (Params, error) {
	if t < 2 {
		return Params{}, fmt.Errorf("lsh: signature size %d too small to band", t)
	}
	if !(xi > 0 && xi < 1) { // NaN fails both comparisons
		return Params{}, fmt.Errorf("lsh: threshold %v out of (0,1)", xi)
	}
	if buckets <= 0 {
		return Params{}, fmt.Errorf("lsh: non-positive bucket count %d", buckets)
	}
	best := Params{}
	bestErr := math.Inf(1)
	for zones := 2; zones <= t; zones++ {
		if t%zones != 0 {
			continue
		}
		p := Params{Zones: zones, Rows: t / zones, Buckets: buckets}
		if diff := math.Abs(p.Threshold() - xi); diff < bestErr {
			best, bestErr = p, diff
		}
	}
	return best, nil
}

// BitVectors holds the per-point bucket bit vectors.
type BitVectors struct {
	params      Params
	cols        int
	wordsPerCol int
	words       []uint64
	// zoneKeys[z] is zone z's 64-bit mixing key, drawn from the build seed;
	// Rehash hashes a changed column with the same keys.
	zoneKeys []uint64
}

// buildCheckStride is how many columns BuildCtx encodes between two context
// checks — a shard-granularity bound on cancellation latency.
const buildCheckStride = 256

// BuildCtx hashes every signature of the matrix into bucket bit vectors. The
// per-zone hash functions are seeded deterministically from seed.
// Cancellation is checked every buildCheckStride columns; a cancelled build
// returns the context's error, and no partial bit vectors are exposed.
func BuildCtx(ctx context.Context, m *minhash.Matrix, p Params, seed int64) (*BitVectors, error) {
	if err := p.Validate(m.T()); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One 64-bit mixing key per zone.
	r := rand.New(rand.NewSource(seed))
	zoneKeys := make([]uint64, p.Zones)
	for z := range zoneKeys {
		zoneKeys[z] = r.Uint64()
	}
	bv := newBitVectors(p, zoneKeys, m.Cols())
	for c := 0; c < m.Cols(); c++ {
		if c%buildCheckStride == 0 && c > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		bv.Rehash(c, m.Column(c))
	}
	return bv, nil
}

// newBitVectors allocates all-zero vectors for cols points.
func newBitVectors(p Params, zoneKeys []uint64, cols int) *BitVectors {
	wordsPerCol := (p.Zones*p.Buckets + 63) / 64
	return &BitVectors{
		params:      p,
		cols:        cols,
		wordsPerCol: wordsPerCol,
		words:       make([]uint64, wordsPerCol*cols),
		zoneKeys:    zoneKeys,
	}
}

// Rehash sets point c's vector from its signature sig, every zone hashed
// afresh: a zone's bucket is a function of its fragment and zone key
// alone, so the vector is BuildCtx's for that signature. BuildCtx sets
// every column with it, and a write that patches the matrix in place
// rehashes each column it changed or joined.
func (bv *BitVectors) Rehash(c int, sig []uint32) {
	p := bv.params
	row := bv.words[c*bv.wordsPerCol : (c+1)*bv.wordsPerCol]
	clear(row)
	for z := 0; z < p.Zones; z++ {
		frag := sig[z*p.Rows : (z+1)*p.Rows]
		bit := z*p.Buckets + int(hashFragment(frag, bv.zoneKeys[z])%uint64(p.Buckets))
		row[bit/64] |= 1 << (bit % 64)
	}
}

// InsertColumn grows bv by one empty vector at position at (vectors at and
// beyond shift right), as minhash.Matrix.InsertColumn grows the matrix bv
// encodes; Rehash then sets it. Like the matrix, the vectors are patched in
// place for as long as their fingerprint is cached, so a reallocation
// leaves room for a few more vectors, not append's quarter.
func (bv *BitVectors) InsertColumn(at int) {
	if at < 0 || at > bv.cols {
		panic("lsh: InsertColumn position out of range")
	}
	w := bv.wordsPerCol
	if n := (bv.cols + 1) * w; n > cap(bv.words) {
		bv.words = append(make([]uint64, 0, n+16*w), bv.words...)
	}
	bv.words = bv.words[:(bv.cols+1)*w]
	copy(bv.words[(at+1)*w:], bv.words[at*w:bv.cols*w])
	bv.cols++
	clear(bv.words[at*w : (at+1)*w])
}

// RemoveColumns drops the vectors at the given positions (sorted ascending
// and in range), compacting the rest left, as minhash.Matrix.RemoveColumns
// does to the matrix bv encodes.
func (bv *BitVectors) RemoveColumns(at []int) {
	if len(at) == 0 {
		return
	}
	w, kept, r := bv.wordsPerCol, at[0], 0
	for c := at[0]; c < bv.cols; c++ {
		if r < len(at) && at[r] == c {
			r++
			continue
		}
		copy(bv.words[kept*w:(kept+1)*w], bv.words[c*w:(c+1)*w])
		kept++
	}
	if r != len(at) {
		panic("lsh: RemoveColumns positions not sorted ascending in range")
	}
	bv.cols = kept
	bv.words = bv.words[:kept*w]
}

// hashFragment mixes a signature fragment with a zone key (FNV-1a over the
// slot bytes, then a finalizing multiply-shift).
func hashFragment(frag []uint32, key uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ key
	for _, v := range frag {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64((v >> shift) & 0xff)
			h *= prime
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Params returns the banding parameters.
func (bv *BitVectors) Params() Params { return bv.params }

// Cols returns the number of encoded points.
func (bv *BitVectors) Cols() int { return bv.cols }

// Bucket returns the bucket point c hashed to in zone z: the position of
// the one set bit among the zone's B bits (-1 if the zone has none, which a
// built vector never has).
func (bv *BitVectors) Bucket(c, z int) int {
	row := bv.words[c*bv.wordsPerCol : (c+1)*bv.wordsPerCol]
	lo, hi := z*bv.params.Buckets, (z+1)*bv.params.Buckets
	for bit := lo; bit < hi; bit = (bit/64 + 1) * 64 {
		if w := row[bit/64] >> (bit % 64); w != 0 {
			if b := bit + bits.TrailingZeros64(w); b < hi {
				return b - lo
			}
			return -1
		}
	}
	return -1
}

// Hamming returns the Hamming distance between the bit vectors of points i
// and j. Because each vector has exactly one set bit per zone, the distance
// is twice the number of zones where the points land in different buckets.
func (bv *BitVectors) Hamming(i, j int) int {
	a := bv.words[i*bv.wordsPerCol : (i+1)*bv.wordsPerCol]
	b := bv.words[j*bv.wordsPerCol : (j+1)*bv.wordsPerCol]
	d := 0
	for w := range a {
		d += bits.OnesCount64(a[w] ^ b[w])
	}
	return d
}

// OnesCount returns the number of set bits of point c's vector (always ζ).
func (bv *BitVectors) OnesCount(c int) int {
	n := 0
	for _, w := range bv.words[c*bv.wordsPerCol : (c+1)*bv.wordsPerCol] {
		n += bits.OnesCount64(w)
	}
	return n
}

// MemoryBytes returns the bit-vector storage footprint, the LSH side of
// Figure 13(a)-(b).
func (bv *BitVectors) MemoryBytes() int { return 8 * len(bv.words) }

// VectorsFit reports whether the bit-vectors of m points under p stay within
// minhash.MaxFingerprintBytes, measured as m·ζ·B/8 bytes. The bucket count
// is a request parameter of the serving daemons, so without a cap one query
// could ask for vectors larger than the host. p must have positive zones;
// non-positive m always fits.
func VectorsFit(p Params, m int) bool {
	return p.Buckets <= minhash.MaxFingerprintBytes*8/(p.Zones*max(m, 1))
}
