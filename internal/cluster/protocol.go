// protocol.go defines the wire shape of the one shard RPC and the
// checksum/encoding helpers both sides share. Everything rides JSON; the
// signature matrix is packed as base64 little-endian uint32 slots (column
// major) because a 100×m matrix as a JSON number array would dominate the
// response size. The request carries a digest of the coordinates the fold
// reads and the reply a CRC of its matrix, so a replica built from other
// data surfaces as a refused shard, and wire corruption, injected or real,
// as a retryable checksum error, never as silently skewed signatures.
package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
)

// Wire endpoints served by a Worker.
const (
	// PathHealth reports liveness and drain state.
	PathHealth = "/healthz"
	// PathStats reports the worker's counters.
	PathStats = "/stats"
	// PathSigFold folds one shard's rows into its signature contribution.
	PathSigFold = "/shard/sigfold"
	// PathFaults installs or clears the worker's wire-fault policy.
	PathFaults = "/faults"
)

// ShardRequest asks a worker for one shard's signature contribution: the
// fold of the Shard-th of the dataset's Shards page ranges
// (core.PageRange) against the skyline Sky.
type ShardRequest struct {
	// Spec names the dataset; the worker regenerates it on first use.
	Spec DatasetSpec `json:"spec"`
	// Epoch is the coordinator's mutation epoch. Workers only hold pristine
	// regenerated datasets (epoch 0); any other value is answered with 409 so
	// stale signatures can never enter a merge.
	Epoch uint64 `json:"epoch"`
	// Shards is the total shard count; Shard is this request's index.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`

	// T is the signature size and HashSeed the MinHash family seed.
	T        int   `json:"t,omitempty"`
	HashSeed int64 `json:"hash_seed,omitempty"`
	// Sky is the coordinator's skyline (ascending global row ids) the fold
	// runs against.
	Sky []int `json:"sky,omitempty"`
	// Digest is the coordinator's ReplicaDigest of the shard's rows and the
	// skyline rows. A worker whose replica digests differently answers 409,
	// so a fold over other data never enters the merge.
	Digest uint32 `json:"digest"`
}

// Validate checks the request's shard addressing.
func (r ShardRequest) Validate() error {
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if r.Shards < 1 {
		return fmt.Errorf("cluster: non-positive shard count %d", r.Shards)
	}
	if r.Shards > r.Spec.N {
		return fmt.Errorf("cluster: shard count %d exceeds the %d rows", r.Shards, r.Spec.N)
	}
	if r.Shard < 0 || r.Shard >= r.Shards {
		return fmt.Errorf("cluster: shard index %d out of [0, %d)", r.Shard, r.Shards)
	}
	return nil
}

// FoldResponse is PathSigFold's reply: the shard's signature contribution.
type FoldResponse struct {
	// T and Cols are the matrix dimensions, echoed for validation.
	T    int `json:"t"`
	Cols int `json:"cols"`
	// Sig is the packed signature matrix (EncodeMatrix).
	Sig string `json:"sig"`
	// DomScore is the shard's domination-score contribution per column.
	// Scores are integral counts, so the JSON float64 round-trip is exact.
	DomScore []float64 `json:"dom_score"`
	// Checksum covers the raw signature bytes (before base64).
	Checksum uint32 `json:"crc"`
}

// ReplicaDigest is the CRC-32 (IEEE) of the coordinates a shard's fold
// reads, as little-endian float64 bits: the rows [lo, hi) of ds in order,
// then the skyline rows in sky's order. The coordinator sends its digest
// with every fold and the worker compares its replica's.
func ReplicaDigest(ds *data.Dataset, lo, hi int, sky []int) uint32 {
	d := ds.Dims()
	var buf [4096]byte
	crc, k := uint32(0), 0
	put := func(vals []float64) {
		for _, v := range vals {
			if k == len(buf) {
				crc, k = crc32.Update(crc, crc32.IEEETable, buf[:]), 0
			}
			binary.LittleEndian.PutUint64(buf[k:], math.Float64bits(v))
			k += 8
		}
	}
	put(ds.Values()[lo*d : hi*d])
	for _, s := range sky {
		put(ds.Point(s))
	}
	return crc32.Update(crc, crc32.IEEETable, buf[:k])
}

// errorReply is the JSON body of every worker error response.
type errorReply struct {
	Error string `json:"error"`
}

// matrixBytes packs the matrix column-major as little-endian uint32 slots.
func matrixBytes(m *minhash.Matrix) []byte {
	t, cols := m.T(), m.Cols()
	buf := make([]byte, 4*t*cols)
	for c := 0; c < cols; c++ {
		col := m.Column(c)
		off := c * t * 4
		for s, v := range col {
			binary.LittleEndian.PutUint32(buf[off+4*s:], v)
		}
	}
	return buf
}

// EncodeMatrix packs a signature matrix for the wire, returning the base64
// payload and the checksum of the raw bytes.
func EncodeMatrix(m *minhash.Matrix) (sig string, crc uint32) {
	buf := matrixBytes(m)
	return base64.StdEncoding.EncodeToString(buf), crc32.ChecksumIEEE(buf)
}

// DecodeMatrix unpacks a wire matrix, verifying dimensions and checksum. The
// slots are folded into a fresh matrix with UpdateColumn, which also rebuilds
// the screening bounds the fold kernels rely on.
func DecodeMatrix(sig string, t, cols int, crc uint32) (*minhash.Matrix, error) {
	if t < 1 || cols < 0 {
		return nil, fmt.Errorf("cluster: bad matrix dimensions %d×%d", t, cols)
	}
	buf, err := base64.StdEncoding.DecodeString(sig)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChecksum, err)
	}
	if len(buf) != 4*t*cols {
		return nil, fmt.Errorf("%w: matrix payload %d bytes, want %d", ErrChecksum, len(buf), 4*t*cols)
	}
	if got := crc32.ChecksumIEEE(buf); got != crc {
		return nil, fmt.Errorf("%w: matrix crc %08x, want %08x", ErrChecksum, got, crc)
	}
	m := minhash.NewMatrix(t, cols)
	col := make([]uint32, t)
	for c := 0; c < cols; c++ {
		off := c * t * 4
		for s := range col {
			col[s] = binary.LittleEndian.Uint32(buf[off+4*s:])
		}
		m.UpdateColumn(c, col)
	}
	return m, nil
}
