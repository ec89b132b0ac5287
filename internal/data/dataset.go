// Package data provides the dataset substrate of the SkyDiver reproduction:
// a compact in-memory multidimensional point store, the synthetic workload
// generators of the skyline literature (independent, correlated and
// anticorrelated distributions following Börzsönyi et al.), synthetic
// stand-ins for the two real-life datasets of the paper (Forest Cover and
// Recipes), and a binary serialization format so that generated datasets can
// be persisted by cmd/datagen and reloaded by the tools.
package data

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"skydiver/internal/geom"
)

// Dataset is a collection of n points in d dimensions stored in a single
// flat slice (row-major) for cache locality. Smaller coordinate values are
// preferred on every dimension (the canonical orientation); use
// geom.Preferences.Canonicalize when constructing from max-preferred inputs.
//
// Datasets are append-and-tombstone mutable: Append adds rows at the end,
// MarkDeleted retires them. Row ids are never reused or compacted — a row
// index is a stable identity for hashing and for R*-tree entries — so
// consumers that scan rows must skip Deleted ones. The zero value of the
// tombstone set is "nothing deleted" and costs nothing. Dataset performs no
// locking: callers that mutate concurrently with readers must synchronize
// (the public skydiver.Dataset does).
type Dataset struct {
	dims    int
	vals    []float64
	name    string
	deleted []uint64 // tombstone bitmap, nil while nothing was ever deleted
	nDel    int
}

// New creates a dataset from a flat row-major value slice. The slice is
// owned by the returned dataset and must not be mutated afterwards.
func New(name string, dims int, vals []float64) (*Dataset, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("data: non-positive dimensionality %d", dims)
	}
	if len(vals)%dims != 0 {
		return nil, fmt.Errorf("data: %d values not divisible by %d dimensions", len(vals), dims)
	}
	return &Dataset{dims: dims, vals: vals, name: name}, nil
}

// FromRows creates a dataset by copying a slice of points. All rows must
// share the same dimensionality.
func FromRows(name string, rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("data: empty row set")
	}
	d := len(rows[0])
	vals := make([]float64, 0, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("data: row %d has %d dims, want %d", i, len(r), d)
		}
		vals = append(vals, r...)
	}
	return New(name, d, vals)
}

// Name returns the dataset's human-readable name (e.g. "IND-1M-4D").
func (ds *Dataset) Name() string { return ds.name }

// Len returns the number of points.
func (ds *Dataset) Len() int { return len(ds.vals) / ds.dims }

// Dims returns the dimensionality.
func (ds *Dataset) Dims() int { return ds.dims }

// Point returns a view of the i-th point. The returned slice aliases the
// dataset's storage and must not be mutated.
func (ds *Dataset) Point(i int) []float64 {
	return ds.vals[i*ds.dims : (i+1)*ds.dims : (i+1)*ds.dims]
}

// Values returns the underlying flat storage (read-only).
func (ds *Dataset) Values() []float64 { return ds.vals }

// Append adds a point at the end of the dataset and returns its row id.
// The point is copied.
func (ds *Dataset) Append(p []float64) (int, error) {
	if len(p) != ds.dims {
		return 0, fmt.Errorf("data: point has %d dims, dataset %q has %d", len(p), ds.name, ds.dims)
	}
	id := ds.Len()
	ds.vals = append(ds.vals, p...)
	return id, nil
}

// MarkDeleted tombstones row i. The row's storage and id remain (ids are
// stable identities); readers skip it via Deleted. Returns false when the
// row was already deleted.
func (ds *Dataset) MarkDeleted(i int) bool {
	if i < 0 || i >= ds.Len() {
		return false
	}
	if ds.deleted == nil {
		ds.deleted = make([]uint64, (ds.Len()+63)/64)
	} else if w := i >> 6; w >= len(ds.deleted) {
		grown := make([]uint64, (ds.Len()+63)/64)
		copy(grown, ds.deleted)
		ds.deleted = grown
	}
	if ds.deleted[i>>6]&(1<<(uint(i)&63)) != 0 {
		return false
	}
	ds.deleted[i>>6] |= 1 << (uint(i) & 63)
	ds.nDel++
	return true
}

// Deleted reports whether row i is tombstoned. The nil-bitmap fast path
// keeps the immutable-dataset scan cost unchanged.
func (ds *Dataset) Deleted(i int) bool {
	if ds.deleted == nil {
		return false
	}
	w := i >> 6
	return w < len(ds.deleted) && ds.deleted[w]&(1<<(uint(i)&63)) != 0
}

// LiveLen returns the number of non-deleted rows.
func (ds *Dataset) LiveLen() int { return ds.Len() - ds.nDel }

// Project returns a new dataset restricted to the first dims dimensions.
// The paper evaluates FC and REC at d = 4, 5, 7 by projecting the same file.
func (ds *Dataset) Project(dims int) (*Dataset, error) {
	if dims <= 0 || dims > ds.dims {
		return nil, fmt.Errorf("data: cannot project %d-dimensional dataset to %d dims", ds.dims, dims)
	}
	if dims == ds.dims {
		return ds, nil
	}
	n := ds.Len()
	vals := make([]float64, n*dims)
	for i := 0; i < n; i++ {
		copy(vals[i*dims:(i+1)*dims], ds.vals[i*ds.dims:i*ds.dims+dims])
	}
	return &Dataset{dims: dims, vals: vals, name: fmt.Sprintf("%s/%dD", ds.name, dims)}, nil
}

// Bounds returns the minimum bounding rectangle of all points.
func (ds *Dataset) Bounds() geom.Rect {
	r := geom.NewRect(ds.dims)
	for i := 0; i < ds.Len(); i++ {
		r.ExpandPoint(ds.Point(i))
	}
	return r
}

// Canonicalize returns a copy of the dataset with max-preferred dimensions
// negated so that smaller values are preferred everywhere.
func (ds *Dataset) Canonicalize(prefs geom.Preferences) (*Dataset, error) {
	if err := prefs.Validate(ds.dims); err != nil {
		return nil, err
	}
	vals := make([]float64, len(ds.vals))
	copy(vals, ds.vals)
	for i := 0; i < len(vals); i += ds.dims {
		prefs.Canonicalize(vals[i : i+ds.dims])
	}
	return &Dataset{dims: ds.dims, vals: vals, name: ds.name}, nil
}

// binary format: magic | version | dims | n | name | values.
const (
	fileMagic   = 0x534b5944 // "SKYD"
	fileVersion = 1
)

// Write serializes the dataset in the repository's binary format.
func (ds *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 4+4+4+8+4)
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ds.dims))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(ds.Len()))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(ds.name)))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("data: write header: %w", err)
	}
	if _, err := bw.WriteString(ds.name); err != nil {
		return fmt.Errorf("data: write name: %w", err)
	}
	buf := make([]byte, 8)
	for _, v := range ds.vals {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("data: write values: %w", err)
		}
	}
	return bw.Flush()
}

// Read deserializes a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	name, dims, n, err := readFileHeader(br)
	if err != nil {
		return nil, err
	}
	// Grow the value slice as bytes actually arrive instead of trusting the
	// header's cardinality, so a corrupt or hostile header cannot force a
	// huge allocation before the short read is detected.
	total := n * dims
	initialCap := total
	if initialCap > 1<<20 {
		initialCap = 1 << 20
	}
	vals := make([]float64, 0, initialCap)
	buf := make([]byte, 8)
	for i := 0; i < total; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("data: read values: %w", err)
		}
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
	return New(name, dims, vals)
}
