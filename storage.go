package skydiver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

// StorageKind selects the physical backend the index pages live on.
type StorageKind int

const (
	// StorageSimulated keeps index pages in the in-memory simulated store —
	// the measurement twin whose buffer pool reproduces the paper's I/O
	// accounting (4 KiB pages, 20% cache, 8 ms faults). The default.
	StorageSimulated StorageKind = iota
	// StorageFile keeps index pages in a real page file, mmap-backed where
	// the platform supports it. The buffer pool, cache fractions and fault
	// counters behave identically — the golden I/O accounting does not
	// change — but the pages live on disk, so indexes larger than RAM are
	// serveable and Close releases the file.
	StorageFile
)

// String names the storage kind.
func (s StorageKind) String() string {
	switch s {
	case StorageSimulated:
		return "sim"
	case StorageFile:
		return "file"
	default:
		return "unknown"
	}
}

// ErrIndexBuilt is returned by SetStorage and LoadIndex when the dataset's
// index already exists, so the requested change cannot take effect.
var ErrIndexBuilt = errors.New("skydiver: index already built")

// newStore opens a fresh page store of the configured kind.
func (d *Dataset) newStoreLocked() (pager.Store, error) {
	if d.storage == StorageFile {
		return pager.CreateFileStore("")
	}
	return pager.NewPageStore(), nil
}

// SetStorage selects the physical backend for the dataset's index pages. It
// must be called before the index is first built (the first skyline or
// diversification query builds it lazily); afterwards it returns
// ErrIndexBuilt unless the kind already matches.
func (d *Dataset) SetStorage(kind StorageKind) error {
	if kind != StorageSimulated && kind != StorageFile {
		return fmt.Errorf("%w: unknown storage kind %d", ErrInvalidOptions, kind)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDatasetClosed
	}
	if d.tree != nil && d.storage != kind {
		return fmt.Errorf("%w: storage is %v", ErrIndexBuilt, d.storage)
	}
	d.storage = kind
	return nil
}

// Storage reports the dataset's configured index storage backend.
func (d *Dataset) Storage() StorageKind {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.storage
}

// SaveIndex writes a warm-start snapshot of the dataset's index: the full
// R*-tree image plus the identity of every node currently resident in the
// decoded-node cache. LoadIndex (or a skyserved snapshot open) restores it
// without re-running bulk load, and the warm set makes the first query skip
// the initial decode storm. The index is built first if no query has run
// yet. A snapshot taken after inserts captures the grown tree and reopens
// over the matching SaveDataset file. A dataset with deleted rows is
// refused with an error wrapping ErrInvalidOptions: the snapshot records
// no tombstones, so it would reopen over rows it no longer indexes. It
// holds the read side of the query/mutation lock.
func (d *Dataset) SaveIndex(w io.Writer) error {
	if err := d.checkClosed(); err != nil {
		return err
	}
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	if err := d.checkNoDeletes(); err != nil {
		return err
	}
	tr, err := d.ensureIndex()
	if err != nil {
		return err
	}
	_, err = tr.WriteSnapshot(w)
	return err
}

// LoadIndex restores the index from a SaveIndex snapshot instead of bulk
// loading it, installing the warm decoded-node set so the first query pays
// no decode storm. It must run before the index is built (ErrIndexBuilt
// otherwise) and before any mutation; the snapshot must match the dataset's
// dimensionality and cardinality, or the error wraps ErrInvalidOptions. The
// pages are loaded into the backend configured with SetStorage.
func (d *Dataset) LoadIndex(r io.Reader) error {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDatasetClosed
	}
	if d.tree != nil {
		return ErrIndexBuilt
	}
	if d.epoch != 0 {
		return fmt.Errorf("skydiver: cannot load an index after %d mutations", d.epoch)
	}
	store, err := d.newStoreLocked()
	if err != nil {
		return err
	}
	tr, err := rtree.ReadSnapshotStore(r, store)
	if err != nil {
		if c, ok := store.(interface{ Close() error }); ok {
			c.Close()
		}
		return err
	}
	if tr.Dims() != d.canon.Dims() || tr.Len() != d.canon.Len() {
		tr.Close()
		return fmt.Errorf("%w: snapshot is %d points in %dD, dataset is %d in %dD",
			ErrInvalidOptions, tr.Len(), tr.Dims(), d.canon.Len(), d.canon.Dims())
	}
	d.tree = tr
	return nil
}

// RowSource is a resettable forward iterator over dataset rows — the
// bounded-memory input of the streaming pipeline. Next returns a slice
// reused across calls (copy to retain) and io.EOF after the last row; Reset
// rewinds to the first row, replaying the identical stream.
type RowSource = data.Source

// FileRowSource streams rows from a dataset file written by cmd/datagen (or
// WriteSource); it holds the file open, so callers Close it when done.
type FileRowSource = data.FileSource

// OpenDatasetSource opens a binary dataset file (.skd, as written by
// cmd/datagen -out) as a streaming row source. The file header is validated
// eagerly; rows are read on demand, so a 10M-point dataset is never resident.
func OpenDatasetSource(path string) (*FileRowSource, error) {
	return data.OpenFile(path)
}

// GenerateSource returns the streaming form of Generate: a row source
// producing exactly the rows of the equivalent materialized dataset, without
// materializing them. ForestCover and Recipes are fixed at their native 7
// attributes; pass dims <= 0 (or 7) to accept that, any other value errors
// (project a materialized dataset instead).
func GenerateSource(dist Distribution, n, dims int, seed int64) (RowSource, error) {
	if n < 1 {
		return nil, fmt.Errorf("skydiver: non-positive cardinality %d", n)
	}
	switch dist {
	case Independent:
		return data.IndependentSource(n, dims, seed), nil
	case Anticorrelated:
		return data.AnticorrelatedSource(n, dims, seed), nil
	case Correlated:
		return data.CorrelatedSource(n, dims, seed), nil
	case ForestCover:
		if dims > 0 && dims != 7 {
			return nil, fmt.Errorf("skydiver: ForestCover streams its native 7 attributes, not %d", dims)
		}
		return data.ForestCoverSource(n, seed), nil
	case Recipes:
		if dims > 0 && dims != 7 {
			return nil, fmt.Errorf("skydiver: Recipes streams its native 7 attributes, not %d", dims)
		}
		return data.RecipesSource(n, seed), nil
	default:
		return nil, fmt.Errorf("skydiver: unknown distribution %d", dist)
	}
}

// canonSource canonicalizes a row stream into the min-preferred orientation
// on the fly. It keeps its own row buffer: the wrapped source's slice is
// never written (a dataset-view source aliases the dataset's storage).
type canonSource struct {
	src   RowSource
	prefs geom.Preferences
	row   []float64
}

func (c *canonSource) Name() string { return c.src.Name() }
func (c *canonSource) Dims() int    { return c.src.Dims() }
func (c *canonSource) Len() int     { return c.src.Len() }
func (c *canonSource) Reset() error { return c.src.Reset() }

func (c *canonSource) Next() ([]float64, error) {
	p, err := c.src.Next()
	if err != nil {
		return nil, err
	}
	copy(c.row, p)
	c.prefs.Canonicalize(c.row)
	return c.row, nil
}

// defaultStreamWindow bounds the streaming BNL window when Options leaves
// StreamWindow zero: large enough that typical skylines resolve in one or
// two passes, small enough to stay a rounding error of memory.
const defaultStreamWindow = 1024

// DiversifyStream diversifies the skyline of a row stream; see
// DiversifyStreamContext.
func DiversifyStream(src RowSource, prefs []Pref, opts Options) (*Result, error) {
	return DiversifyStreamContext(context.Background(), src, prefs, opts)
}

// DiversifyStreamContext runs the bounded-memory pipeline end to end over a
// row source, never materializing the dataset: the skyline comes from the
// multi-pass external BNL (window bounded by Options.StreamWindow, spilling
// to a real temp file), signatures from the streaming index-free SigGen
// pass, and the greedy selection sees only the skyline. Peak memory is
// O(window + skyline + signatures) — an IND-10M input never resides in RAM.
//
// The signatures are bit-identical to the index-free pass over the
// materialized rows, so the selected set and objective value match a
// DiversifyContext run on the same data with the same parameters (the
// skyline is enumerated in arrival order here versus BBS's L1 order there,
// which can only permute equal-score tie-breaks). Result.Indexes are stream
// positions (0-based arrival order), and both phases charge I/O through the
// sequential-scan model — there is no index. Only MinHash and LSH are
// supported; Greedy, Exact, UseIndex, Remote, Budget and AllowDegraded need
// an index or a materialized dataset and are rejected with
// ErrInvalidOptions. Shards, which only partitions remote execution, is
// ignored. prefs may be nil for all-minimization.
//
// The source is consumed with Reset+sequential passes and must not be used
// concurrently; it is left exhausted on return.
func DiversifyStreamContext(ctx context.Context, src RowSource, prefs []Pref, opts Options) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrInvalidOptions)
	}
	dims := src.Dims()
	if prefs == nil {
		prefs = geom.MinPrefs(dims)
	}
	if err := geom.Preferences(prefs).Validate(dims); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	switch opts.Algorithm {
	case MinHash, LSH:
	default:
		return nil, fmt.Errorf("%w: streaming diversification supports MinHash and LSH, not %v", ErrInvalidOptions, opts.Algorithm)
	}
	switch {
	case opts.UseIndex:
		return nil, fmt.Errorf("%w: UseIndex needs a materialized index", ErrInvalidOptions)
	case opts.Remote != nil:
		return nil, fmt.Errorf("%w: remote execution needs a generated dataset", ErrInvalidOptions)
	case opts.Budget.Enabled() || opts.AllowDegraded:
		return nil, fmt.Errorf("%w: budgets and degraded serving are not available on the streaming path", ErrInvalidOptions)
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("%w: Options.K must be at least 1", ErrInvalidOptions)
	}
	window := opts.StreamWindow
	if window == 0 {
		window = defaultStreamWindow
	}
	if window < 1 {
		return nil, fmt.Errorf("%w: Options.StreamWindow must be non-negative, got %d", ErrInvalidOptions, window)
	}

	canon := &canonSource{src: src, prefs: geom.Preferences(prefs), row: make([]float64, dims)}
	skyRes, err := skyline.ComputeBNLExternalSource(ctx, canon, window)
	if err != nil {
		return nil, wrapCtxErr(err)
	}
	if opts.K > len(skyRes.Sky) {
		return nil, fmt.Errorf("%w: K = %d exceeds skyline size %d", ErrInvalidOptions, opts.K, len(skyRes.Sky))
	}

	cfg := coreConfig(opts)
	cfg.NoCache = true
	in := core.Input{
		Sky: skyRes.Sky,
		Builder: func(ctx context.Context, fam *minhash.Family) (*core.Fingerprint, error) {
			return core.SigGenIFStreamCtx(ctx, canon, skyRes.Sky, skyRes.SkyPoints, fam)
		},
	}
	res, err := runPipeline(ctx, opts.Algorithm, in, cfg)
	return finish(res, err, func(res *core.Result) *Result { return streamResult(res, skyRes, prefs) })
}

// streamResult assembles the public result of a streaming run: the selected
// points come from the skyline buffer (de-canonicalized back to the user's
// orientation — Canonicalize is an involution) and the skyline phase's scan
// I/O is folded into the totals alongside the signature pass's.
func streamResult(res *core.Result, skyRes *skyline.ExternalStreamResult, prefs []Pref) *Result {
	out := &Result{
		Indexes:           res.DataIndexes,
		Partial:           res.Partial,
		Points:            make([][]float64, len(res.Selected)),
		ObjectiveValue:    res.ObjectiveValue,
		CPUTime:           res.Stats.CPU(),
		MemoryBytes:       res.Stats.MemoryBytes,
		FingerprintCached: res.Stats.FingerprintCached,
	}
	tot := res.Stats.IO
	tot.Reads += skyRes.IO.Reads
	tot.Hits += skyRes.IO.Hits
	tot.Faults += skyRes.IO.Faults
	tot.Writes += skyRes.IO.Writes
	out.PageFaults = tot.Faults
	out.IOTime = time.Duration(tot.Faults) * res.Stats.Model.FaultTime
	for i, s := range res.Selected {
		p := skyRes.SkyPoints[s]
		cp := make([]float64, len(p))
		copy(cp, p)
		geom.Preferences(prefs).Canonicalize(cp)
		out.Points[i] = cp
	}
	return out
}
