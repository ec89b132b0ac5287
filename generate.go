package skydiver

import (
	"fmt"
	"io"
	"strings"

	"skydiver/internal/cluster"
	"skydiver/internal/data"
)

// LoadDataset reads a dataset in the repository's binary format (as written
// by cmd/datagen) and wraps it for diversification. prefs may be nil for
// all-minimization.
func LoadDataset(r io.Reader, prefs []Pref) (*Dataset, error) {
	ds, err := data.Read(r)
	if err != nil {
		return nil, err
	}
	return fromInternal(ds, prefs)
}

// SaveDataset writes the dataset's points, in the original orientation, in
// the repository's binary format; LoadDataset with the same preferences
// reads back the identical dataset. The format has no tombstones, so a
// dataset with deleted rows is refused with an error wrapping
// ErrInvalidOptions; after inserts only, every row is written. It holds the
// read side of the query/mutation lock, so it never sees a write half done.
func (d *Dataset) SaveDataset(w io.Writer) error {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	if err := d.checkNoDeletes(); err != nil {
		return err
	}
	out, err := data.New(d.canon.Name(), d.canon.Dims(), d.reorient(d.canon.Values()))
	if err != nil {
		return err
	}
	return out.Write(w)
}

// checkNoDeletes refuses to persist a dataset with deleted rows: neither the
// dataset nor the index file format records tombstones, so the saved rows
// would reopen live and the saved index would not match them. Callers hold
// qmu.
func (d *Dataset) checkNoDeletes() error {
	if del := d.canon.Len() - d.canon.LiveLen(); del > 0 {
		return fmt.Errorf("%w: %d of %d rows are deleted, and the file formats record no deletions",
			ErrInvalidOptions, del, d.canon.Len())
	}
	return nil
}

// Distribution names a synthetic workload generator.
type Distribution int

// Supported synthetic distributions (Section 5.1 / Table 4).
const (
	// Independent draws every coordinate uniformly at random (IND).
	Independent Distribution = iota
	// Anticorrelated concentrates points near the antidiagonal, producing
	// very large skylines (ANT).
	Anticorrelated
	// Correlated concentrates points near the diagonal, producing tiny
	// skylines (CORR).
	Correlated
	// ForestCover is the synthetic stand-in for the UCI Forest Cover
	// dataset: 7 correlated, integer-quantized terrain attributes. The dims
	// argument projects to the first dims attributes (the paper uses 4, 5
	// and 7).
	ForestCover
	// Recipes is the synthetic stand-in for the Sparkrecipes nutrition
	// dataset: 7 heavy-tailed attributes with exact zeros. Projected like
	// ForestCover.
	Recipes
)

// String names the distribution as the paper abbreviates it.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "IND"
	case Anticorrelated:
		return "ANT"
	case Correlated:
		return "CORR"
	case ForestCover:
		return "FC"
	case Recipes:
		return "REC"
	default:
		return "unknown"
	}
}

// ParseDistribution decodes a generator name, in any case: ind, ant, corr,
// fc or rec, the names String prints.
func ParseDistribution(s string) (Distribution, error) {
	for d := Independent; d <= Recipes; d++ {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q (want ind, ant, corr, fc or rec)", s)
}

// Generate creates a synthetic dataset of n points in dims dimensions,
// deterministically from the seed, and wraps it ready for diversification
// (smaller values preferred on every dimension, matching the paper's
// convention).
func Generate(dist Distribution, n, dims int, seed int64) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("skydiver: non-positive cardinality %d", n)
	}
	var ds *data.Dataset
	switch dist {
	case Independent:
		ds = data.Independent(n, dims, seed)
	case Anticorrelated:
		ds = data.Anticorrelated(n, dims, seed)
	case Correlated:
		ds = data.Correlated(n, dims, seed)
	case ForestCover:
		full := data.SyntheticForestCover(n, seed)
		var err error
		ds, err = full.Project(dims)
		if err != nil {
			return nil, err
		}
	case Recipes:
		full := data.SyntheticRecipes(n, seed)
		var err error
		ds, err = full.Project(dims)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("skydiver: unknown distribution %d", dist)
	}
	out, err := fromInternal(ds, nil)
	if err != nil {
		return nil, err
	}
	// Generated datasets are remotable: the spec lets a shard worker
	// regenerate this exact dataset (same generator, same seed) bit for bit.
	out.spec = &cluster.DatasetSpec{Gen: dist.String(), N: n, Dims: dims, Seed: seed}
	return out, nil
}
