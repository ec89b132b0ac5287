// Package skydiver is a from-scratch reproduction of "SkyDiver: A Framework
// for Skyline Diversification" (Valkanas, Papadopoulos, Gunopulos — EDBT
// 2013).
//
// Given a multidimensional dataset, SkyDiver selects the k most *diverse*
// skyline points, where the diversity of two skyline points is the Jaccard
// distance of their dominated sets Γ(p) — no artificial Lp distance over the
// attribute space is needed, so the framework works equally well on
// numerical, categorical and partially ordered domains, and even on bare
// dominance graphs with no coordinates at all.
//
// Basic use:
//
//	ds, _ := skydiver.NewDataset("hotels", rows, []skydiver.Pref{skydiver.Min, skydiver.Max})
//	res, _ := ds.Diversify(skydiver.Options{K: 5})
//	for _, p := range res.Points { ... }
//
// The package exposes the four algorithms evaluated in the paper —
// SkyDiver-MH (MinHash signatures), SkyDiver-LSH (banded signatures with
// Hamming distances), Simple-Greedy (exact Jaccard via aggregate R*-tree
// range counting) and Brute-Force — plus both fingerprinting modes
// (index-free single pass and index-based R*-tree traversal), the synthetic
// workload generators of the skyline literature, and full cost accounting
// (CPU time, simulated page faults at 4 KiB pages / 20% cache / 8 ms per
// fault, signature memory).
package skydiver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"skydiver/internal/admission"
	"skydiver/internal/budget"
	"skydiver/internal/cluster"
	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

// ErrDeadlineExceeded is returned (wrapped) by context-aware calls whose
// deadline expired mid-run. It always satisfies
// errors.Is(err, context.DeadlineExceeded) too; the library-specific
// sentinel exists so callers can treat "the budget ran out, here is the
// anytime prefix" differently from an unspecific context error.
var ErrDeadlineExceeded = errors.New("skydiver: deadline exceeded")

// ErrDatasetClosed is returned by every query method of a Dataset after
// Close. Classify with errors.Is.
var ErrDatasetClosed = errors.New("skydiver: dataset closed")

// ErrInvalidOptions marks a query rejected for malformed Options (K out of
// range, unknown algorithm) before any work ran. Serving layers map it to a
// client error (HTTP 400), distinct from server-side failures.
var ErrInvalidOptions = errors.New("skydiver: invalid options")

// wrapCtxErr tags deadline expiries with ErrDeadlineExceeded; other errors
// (including plain cancellations) pass through unchanged.
func wrapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return err
}

// Pref states whether smaller or larger values are preferred on a dimension.
type Pref = geom.Pref

// Preference values.
const (
	// Min prefers smaller attribute values.
	Min = geom.Min
	// Max prefers larger attribute values.
	Max = geom.Max
)

// Algorithm selects the diversification method.
type Algorithm int

// Supported diversification algorithms (Table 3 of the paper).
const (
	// MinHash is SkyDiver-MH: greedy selection over estimated Jaccard
	// distances of MinHash signatures. The recommended default.
	MinHash Algorithm = iota
	// LSH is SkyDiver-LSH: greedy selection over Hamming distances of
	// banded signature bit-vectors; trades accuracy for memory.
	LSH
	// Greedy is Simple-Greedy: the same greedy selection with exact Jaccard
	// distances computed by R-tree range queries. Accurate but slow.
	Greedy
	// Exact is Brute-Force: the optimal k-MMDP solution by exhaustive
	// enumeration. Exponential in k; small skylines only.
	Exact
)

// String names the algorithm as the paper abbreviates it.
func (a Algorithm) String() string {
	switch a {
	case MinHash:
		return "MH"
	case LSH:
		return "LSH"
	case Greedy:
		return "SG"
	case Exact:
		return "BF"
	default:
		return "unknown"
	}
}

// ParseAlgorithm decodes an algorithm name, in any case: mh or minhash, lsh,
// sg or greedy, bf or exact.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "mh", "minhash":
		return MinHash, nil
	case "lsh":
		return LSH, nil
	case "sg", "greedy":
		return Greedy, nil
	case "bf", "exact":
		return Exact, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want mh, lsh, sg or bf)", s)
}

// Options configures Diversify.
type Options struct {
	// K is the number of diverse skyline points to return. Required.
	K int
	// Algorithm selects the method (default MinHash).
	Algorithm Algorithm
	// SignatureSize is the MinHash signature length t (default 100).
	SignatureSize int
	// UseIndex switches fingerprinting to SigGen-IB over the R*-tree;
	// otherwise SigGen-IF scans the data once (the default).
	UseIndex bool
	// LSHThreshold is the banding similarity threshold ξ, in (0, 1)
	// (default 0.2).
	LSHThreshold float64
	// LSHBuckets is the bucket count per zone B (default 20). The LSH
	// bit-vectors take m·ζ·B/8 bytes over m skyline points and ζ zones, and
	// must stay within the 256 MiB fingerprint cap.
	LSHBuckets int
	// Seed drives all hashing; runs are deterministic per seed.
	Seed int64
	// Workers parallelizes fingerprinting across goroutines (0 or 1 =
	// sequential, <0 = all CPUs): index-free passes fold that many
	// page-aligned row ranges into private signature matrices and
	// min-merge them; index-based passes traverse R*-tree subtrees. The
	// count is capped so the private matrices together stay within the
	// fingerprint memory cap. The greedy selection is sequential for any
	// value: it evaluates lazily, refreshing only the candidates that can
	// still win a round. The selected points are identical to the
	// sequential run for any value.
	Workers int
	// NoCache bypasses the dataset's fingerprint cache: Phase 1 always runs
	// and its result is not stored. Use it to measure cold-start costs, or
	// for one-off parameter probes that should not evict resident entries.
	NoCache bool
	// Budget bounds this query's resources (page reads, wall clock, distance
	// estimations). The zero value is unlimited. Exhaustion surfaces as an
	// error wrapping ErrBudgetExceeded together with the anytime partial
	// prefix when the selection had started — never a silent truncation.
	// A budgeted query runs the same attempt as a plain one, so every
	// algorithm keeps its anytime prefix on cancellation too. Not supported
	// with Remote.
	Budget Budget
	// AllowDegraded lets the call walk the graceful-degradation ladder
	// instead of failing when storage is unavailable (circuit breaker open,
	// dead pages) or the budget is spent: serve from a resident fingerprint,
	// fall back to index-free fingerprinting, or return the budget-bounded
	// partial prefix. Degraded answers set Result.Degraded and a
	// machine-readable Result.DegradedReason. Ignored with Remote: every
	// shard is served by the fleet or recomputed locally, so a remote
	// answer is exact or an error.
	AllowDegraded bool
	// Shards partitions remote execution: with Remote set, it is the
	// number of contiguous page ranges of rows the signature fold is cut
	// into (0 means one shard per worker). Each shard is one RPC: a worker
	// folds its range against the dataset's skyline, and the coordinator
	// min-merges the folds. Results are bit-identical to the unsharded path
	// — same skyline, same signatures, same selection, same I/O — for any
	// shard count, including more shards than the data has pages (the
	// surplus ranges are empty). The coordinator holds every shard's fold
	// until the merge, so the count is clamped to the folds that fit the
	// fingerprint memory cap beside the merged one; Result.Remote.Shards
	// reports the clamped count.
	//
	// Without Remote the option changes nothing: the dataset's skyline is
	// already resident, so a query's answers, I/O and cached fingerprint
	// are those of Shards = 0. Negative values, and values above the live
	// row count, are rejected with ErrInvalidOptions.
	Shards int
	// StreamWindow bounds the BNL window of DiversifyStreamContext's
	// skyline phase (0 = a 1024-point default). Ignored by DiversifyContext.
	StreamWindow int
	// Remote, when non-nil, dispatches the Phase-1 signature fold of
	// MinHash/LSH queries to a worker fleet over HTTP, one RPC per shard
	// (see Shards), instead of computing it in-process. Results stay
	// bit-identical to the local path: workers regenerate the dataset from
	// its generator spec, each request carries a digest of the rows the
	// fold reads (a worker whose replica differs refuses the shard), each
	// reply is checksummed, and any shard the fleet cannot serve is
	// recomputed locally. Only datasets built by Generate are remotable.
	// Greedy and Exact ignore the setting; Budget is not supported on the
	// remote path.
	Remote *RemoteOptions
}

// Result reports the chosen diverse skyline points.
type Result struct {
	// Indexes are dataset row indexes of the selected points, in selection
	// order (the first is the point with the highest domination score).
	Indexes []int
	// Partial reports that a context-aware run was cut short and Indexes is
	// the valid diverse prefix completed before the deadline (possibly
	// empty) rather than the full K-point answer. Greedy selection is
	// anytime: the prefix equals what a smaller-K run would have returned.
	Partial bool
	// Points are the selected points in the user's original orientation.
	Points [][]float64
	// ObjectiveValue is the minimum pairwise distance of the selection in
	// the algorithm's own distance space (estimated Jd for MinHash, Hamming
	// for LSH, exact Jd for Greedy/Exact).
	ObjectiveValue float64
	// CPUTime is the processing time of the two phases.
	CPUTime time.Duration
	// IOTime is the simulated I/O time (8 ms per page fault).
	IOTime time.Duration
	// PageFaults is the number of simulated page faults.
	PageFaults int64
	// MemoryBytes is the signature/bit-vector footprint (0 for Greedy/Exact).
	MemoryBytes int
	// FingerprintCached reports that Phase 1 was served from the dataset's
	// fingerprint cache: no signature pass ran, and the run was charged no
	// Phase-1 I/O. Always false for Greedy/Exact (which keep no signatures)
	// and under Options.NoCache.
	FingerprintCached bool
	// SelectionCached reports that the selection was served from the greedy
	// pick order memoized with the cached fingerprint: a read of at most as
	// many points as an earlier complete read under the same key and
	// distance since the last write takes that read's first K picks, the
	// answer a fresh selection would give, and CPUTime then includes no
	// selection. Always false for Greedy/Exact and under Options.NoCache.
	SelectionCached bool
	// Degraded reports that the answer came from the graceful-degradation
	// ladder (Options.AllowDegraded) rather than the requested full
	// pipeline; DegradedReason says which rung served it.
	Degraded bool
	// DegradedReason is the machine-readable rung that produced a Degraded
	// result: one of the Degraded* constants. Empty when Degraded is false.
	DegradedReason string
	// Remote reports how a remote-shard query (Options.Remote) was served:
	// shards answered by the fleet versus recomputed locally, and the work
	// the resilience envelope spent (retries, hedges, failovers, breaker
	// fast-fails). Nil for local queries, and for remote queries whose
	// Phase 1 was served from the fingerprint cache (no shard work ran).
	Remote *RemoteShardStats
}

// Dataset is an indexed multidimensional dataset ready for skyline
// computation and diversification. It keeps one copy of its rows, in the
// canonical orientation where smaller is better on every dimension (the
// paper's Sec. 3.1): inputs are canonicalized on the way in, and every
// point handed back (Point, Result.Points, SkylineProgressive, SaveDataset)
// is a fresh copy flipped back to the user's orientation, bit for bit.
//
// A Dataset is safe for concurrent use: any number of goroutines may call
// Diversify, Skyline and the other query methods on one shared Dataset. The
// index and the skyline are built exactly once (concurrent first callers
// wait for the builder), and every query checks out a private I/O session —
// its own simulated buffer pool over the shared index pages — so per-query
// cache behavior and fault accounting never interleave. InjectFaults
// reconfigures shared state and should be sequenced before (or between)
// query waves, not raced against them.
//
// Mutations are first-class: InsertBatch and DeleteBatch, and Insert and
// Delete as batches of one, maintain the skyline, the R*-tree and every
// resident fingerprint incrementally (see internal/core's maintenance pass)
// instead of invalidating them. Queries and mutations may be issued
// concurrently from any goroutines; each query observes either the state
// entirely before or entirely after any concurrent mutation, never a torn
// intermediate — mutations take the write side of a reader/writer lock
// that every query holds for its whole run. Row indexes are stable:
// deletions tombstone a row, they never renumber the others.
type Dataset struct {
	canon *data.Dataset    // the rows, min-preferred on every dimension
	prefs geom.Preferences // the user's orientation; see reorient

	// qmu orders queries against mutations. Every public query method holds
	// the read side for its entire run (so in-flight fingerprint passes and
	// tree traversals never observe a half-applied mutation); the writes
	// hold the write side. Acquired before mu, never inside it.
	qmu sync.RWMutex

	// epoch counts applied mutation attempts. It is carried into every
	// fingerprint-cache key, so a signature built against an older skyline
	// can never be served — or substituted — after a mutation. Guarded by
	// qmu (writers hold the write side; readers either side).
	epoch   uint64
	inserts uint64 // rows inserted; guarded by qmu
	deletes uint64 // rows deleted; guarded by qmu

	mu   sync.Mutex  // guards lazy construction of tree and sky; inner to qmu
	tree *rtree.Tree // built once; mutated only under qmu's write side
	sky  []int       // current skyline; replaced, never mutated in place

	// storage selects the page backend the index is built on (simulated by
	// default; a real page file with StorageFile). Set by SetStorage, frozen
	// once the tree exists. Guarded by mu.
	storage StorageKind

	// fpCache memoizes Phase-1 fingerprints across queries (keyed on epoch,
	// mode, signature size and seed) with singleflight builds. Internally
	// locked. Mutations patch completed entries forward to the new epoch
	// where possible and drop the rest.
	fpCache *core.FingerprintCache

	// spec, when non-nil, names this dataset in the cluster wire format so
	// remote shard workers can regenerate it bit-for-bit. Set only by
	// Generate — loaded or hand-built datasets are not remotable.
	spec *cluster.DatasetSpec

	// remotes caches remote shard executors per fleet configuration, so
	// breaker state and latency windows persist across queries. Guarded by
	// mu.
	remotes map[string]*cluster.Executor

	// limiter, when non-nil, gates DiversifyContext behind admission
	// control (SetAdmissionPolicy). Guarded by mu; internally locked.
	limiter *admission.Limiter

	// closed is flipped by Close; every later query returns ErrDatasetClosed.
	// Guarded by mu.
	closed bool
}

// Close releases the dataset's serving resources: resident fingerprints are
// purged and the admission limiter is dropped. Every query method called
// after Close returns an error wrapping ErrDatasetClosed; Close itself is
// idempotent. Close does not wait for in-flight queries — they run to
// completion against the still-resident index — except on a file-backed
// dataset (StorageFile), whose page file is released here, failing later
// reads of any still-running query. Callers that need quiescence first (a
// serving registry evicting a dataset) must drain before closing; see
// internal/server's refcounted registry.
func (d *Dataset) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.limiter = nil
	d.fpCache.Purge()
	if d.tree != nil {
		// Releases OS resources for file-backed indexes (descriptor,
		// mapping, temp spill); a no-op for the simulated store.
		return d.tree.Close()
	}
	return nil
}

// checkClosed returns ErrDatasetClosed after Close.
func (d *Dataset) checkClosed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDatasetClosed
	}
	return nil
}

// NewDataset builds a dataset from rows. prefs may be nil, meaning smaller
// values are preferred on every dimension. The rows are copied.
func NewDataset(name string, rows [][]float64, prefs []Pref) (*Dataset, error) {
	ds, err := data.FromRows(name, rows)
	if err != nil {
		return nil, err
	}
	return fromInternal(ds, prefs)
}

// fromInternal wraps ds, which the caller hands over, as the dataset's only
// copy of the rows: it is canonicalized into a copy only when some
// dimension prefers larger values.
func fromInternal(ds *data.Dataset, prefs []Pref) (*Dataset, error) {
	if prefs == nil {
		prefs = geom.MinPrefs(ds.Dims())
	}
	if err := geom.Preferences(prefs).Validate(ds.Dims()); err != nil {
		return nil, err
	}
	canon := ds
	if slices.Contains(prefs, Max) {
		var err error
		if canon, err = ds.Canonicalize(prefs); err != nil {
			return nil, err
		}
	}
	return &Dataset{canon: canon, prefs: prefs, fpCache: core.NewFingerprintCache(0)}, nil
}

// reorient returns a fresh copy of vals — one row, or a row-major run of
// rows — with the max-preferred coordinates negated. Negation flips the
// sign bit only, so the map is its own inverse bit for bit: it takes the
// user's orientation to the canonical one and back.
func (d *Dataset) reorient(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	for i := 0; i < len(out); i += len(d.prefs) {
		d.prefs.Canonicalize(out[i : i+len(d.prefs)])
	}
	return out
}

// FingerprintCacheStats snapshots the dataset's fingerprint-cache counters.
type FingerprintCacheStats = core.FingerprintCacheStats

// FingerprintCacheStats reports how the fingerprint cache has served queries
// so far: SigGen builds executed, hits (queries answered from a resident or
// in-flight fingerprint), misses, and resident entries. Safe to call
// concurrently with running queries.
func (d *Dataset) FingerprintCacheStats() FingerprintCacheStats {
	return d.fpCache.Stats()
}

// DecodeCacheStats snapshots the counters of the decoded-node cache owned by
// this dataset's index (each *rtree.Tree keeps its own; the cache is not
// shared between datasets): nodes served by pointer (Hits) versus pages
// actually decoded (Decodes). Both are zero before the index is first built.
// Safe to call concurrently with running queries.
type DecodeCacheStats = rtree.DecodeCacheStats

// DecodeCacheStats reports the decoded-node cache counters for this
// dataset's index pages (see the type for the fields).
func (d *Dataset) DecodeCacheStats() DecodeCacheStats {
	d.mu.Lock()
	tr := d.tree
	d.mu.Unlock()
	if tr == nil {
		return DecodeCacheStats{}
	}
	return tr.DecodeCacheStats()
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.canon.Name() }

// Len returns the number of rows ever stored, including tombstoned ones:
// row indexes always run [0, Len), and deleting a row never renumbers the
// others. Use LiveLen for the count of live points.
func (d *Dataset) Len() int {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return d.canon.Len()
}

// LiveLen returns the number of live (not deleted) points.
func (d *Dataset) LiveLen() int {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return d.canon.LiveLen()
}

// Dims returns the dimensionality.
func (d *Dataset) Dims() int { return d.canon.Dims() }

// Point returns the i-th point in the original orientation, as a fresh
// copy the caller may keep and modify. Deleted rows keep their coordinates
// readable.
func (d *Dataset) Point(i int) []float64 {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return d.reorient(d.canon.Point(i))
}

// ensureIndex bulk-loads the aggregate R*-tree on first use and opens it
// with the paper's 20% buffer-pool setting. Concurrent first callers
// serialize on the dataset mutex; exactly one builds. The returned tree is
// written only by Insert/Delete under qmu's write side, so callers holding
// either side of qmu may read it without the dataset mutex.
func (d *Dataset) ensureIndex() (*rtree.Tree, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrDatasetClosed
	}
	if d.tree != nil {
		return d.tree, nil
	}
	store, err := d.newStoreLocked()
	if err != nil {
		return nil, err
	}
	tr, err := rtree.BulkLoadStore(d.canon, store)
	if err != nil {
		if c, ok := store.(interface{ Close() error }); ok {
			c.Close()
		}
		return nil, err
	}
	tr.Reopen(pager.DefaultCacheFraction)
	d.tree = tr
	return tr, nil
}

// newSession builds the index if needed and opens a fresh per-query I/O
// session at the paper's 20% cache setting.
func (d *Dataset) newSession() (*rtree.Session, error) {
	tr, err := d.ensureIndex()
	if err != nil {
		return nil, err
	}
	return tr.NewSession(pager.DefaultCacheFraction), nil
}

// skylineSession returns the cached skyline (the internal slice — callers
// inside this package must not mutate it) together with a per-query session.
// On first use the skyline is computed with BBS through that same session,
// so a single query's fault accounting matches the sequential methodology:
// BBS warms the query's cold 20% cache, the diversification phase runs on
// whatever warmth BBS left. Concurrent first callers wait; only one runs
// BBS. Successful results are cached; cancelled runs are not, so a later
// call recomputes.
func (d *Dataset) skylineSession(ctx context.Context) ([]int, *rtree.Session, error) {
	sess, err := d.newSession()
	if err != nil {
		return nil, nil, err
	}
	sky, err := d.skylineWith(ctx, sess)
	if err != nil {
		return nil, nil, wrapCtxErr(err)
	}
	return sky, sess, nil
}

// skylineWith returns the cached skyline, computing it with BBS through the
// given session on first use (see skylineSession). The returned error is not
// wrapped.
func (d *Dataset) skylineWith(ctx context.Context, sess *rtree.Session) ([]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sky != nil {
		return d.sky, nil
	}
	sky, err := skyline.ComputeBBSCtx(ctx, sess)
	if err != nil {
		return nil, err
	}
	d.sky = sky
	return sky, nil
}

// Skyline returns the dataset indexes of the skyline points (computed once
// with BBS over the aggregate R*-tree and cached).
func (d *Dataset) Skyline() ([]int, error) {
	return d.SkylineContext(context.Background())
}

// SkylineContext is Skyline with cancellation, checked at page granularity
// during the BBS traversal. Successful results are cached; cancelled runs
// are not, so a later call recomputes. Deadline expiries are reported as
// ErrDeadlineExceeded. The returned slice is the caller's to keep: it is a
// copy, so mutating it cannot corrupt the cached skyline that later queries
// share.
func (d *Dataset) SkylineContext(ctx context.Context) ([]int, error) {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sky, _, err := d.skylineSession(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(sky))
	copy(out, sky)
	return out, nil
}

// SkylineProgressive streams skyline points as BBS discovers them, in
// ascending L1 order of the canonicalized attributes — useful when only the
// first few skyline points are needed. Each point is a fresh copy in the
// original orientation. Returning false from fn stops the computation. The
// full skyline is not cached by this method. Each call runs in its own I/O
// session.
func (d *Dataset) SkylineProgressive(fn func(index int, point []float64) bool) error {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sess, err := d.newSession()
	if err != nil {
		return err
	}
	return skyline.ComputeBBSProgressive(sess, func(rowID int, _ []float64) bool {
		return fn(rowID, d.reorient(d.canon.Point(rowID)))
	})
}

// SkylineSize returns the skyline cardinality m.
func (d *Dataset) SkylineSize() (int, error) {
	// Uses the internal (already read-locked) path rather than Skyline: a
	// re-entrant RLock would deadlock against a writer queued between the
	// two acquisitions.
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sky, _, err := d.skylineSession(context.Background())
	if err != nil {
		return 0, err
	}
	return len(sky), nil
}

// SkylineAlgorithm selects a skyline computation method for SkylineUsing.
type SkylineAlgorithm int

// Skyline algorithms exposed by the library. BBS is the library default
// used by Skyline.
const (
	// BBS is branch-and-bound over the aggregate R*-tree (progressive,
	// I/O-optimal).
	BBS SkylineAlgorithm = iota
	// BNL is in-memory block-nested-loops.
	BNL
	// SFS is sort-filter skyline (presort by L1 norm).
	SFS
	// DC is divide-and-conquer on the first coordinate.
	DC
)

// SkylineUsing computes the skyline with an explicitly chosen algorithm.
// All algorithms return identical point sets; they differ in CPU/I-O
// profile. The result is not cached (use Skyline for the cached default).
func (d *Dataset) SkylineUsing(algo SkylineAlgorithm) ([]int, error) {
	if err := d.checkClosed(); err != nil {
		return nil, err
	}
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	switch algo {
	case BBS:
		sess, err := d.newSession()
		if err != nil {
			return nil, err
		}
		return skyline.ComputeBBS(sess)
	case BNL:
		return skyline.ComputeBNL(d.canon), nil
	case SFS:
		return skyline.ComputeSFS(d.canon), nil
	case DC:
		return skyline.ComputeDC(d.canon), nil
	default:
		return nil, fmt.Errorf("skydiver: unknown skyline algorithm %d", algo)
	}
}

// StreamingSkyline holds the outcome of an approximate streaming skyline run.
type StreamingSkyline struct {
	// Indexes are the confirmed skyline points (always a subset of the true
	// skyline — no false positives).
	Indexes []int
	// Complete reports whether Indexes is provably the entire skyline.
	Complete bool
	// Passes is the number of sequential passes consumed.
	Passes int
}

// SkylineStreaming runs the randomized multi-pass streaming skyline (the
// bounded-memory, index-free alternative of Das Sarma et al., cited by the
// paper for the streaming case). window bounds the candidate memory;
// maxPasses bounds the sequential passes; results are deterministic per
// seed.
func (d *Dataset) SkylineStreaming(window, maxPasses int, seed int64) (*StreamingSkyline, error) {
	if err := d.checkClosed(); err != nil {
		return nil, err
	}
	if maxPasses < 1 {
		return nil, errors.New("skydiver: maxPasses must be at least 1")
	}
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	res := skyline.ComputeStreamRAND(d.canon, window, maxPasses, seed)
	return &StreamingSkyline{Indexes: res.Sky, Complete: res.Complete, Passes: res.Passes}, nil
}

// SkylineExternal runs the original bounded-memory multi-pass BNL with a
// window of at most windowCap points, spilling to a simulated overflow
// file. The result is the exact skyline; passes reports how many passes the
// window budget forced.
func (d *Dataset) SkylineExternal(windowCap int) (indexes []int, passes int, err error) {
	if err := d.checkClosed(); err != nil {
		return nil, 0, err
	}
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	res := skyline.ComputeBNLExternal(d.canon, windowCap)
	return res.Sky, res.Passes, nil
}

// TopKDominating returns the k points of the dataset with the highest
// domination scores |Γ(p)| in descending order, with the scores — the
// dominance-based ranking of Yiu & Mamoulis the paper builds its seeding
// rule on. Unlike the skyline, the result may contain dominated points.
func (d *Dataset) TopKDominating(k int) (indexes []int, scores []int, err error) {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sess, err := d.newSession()
	if err != nil {
		return nil, nil, err
	}
	return core.TopKDominating(sess, k)
}

// Diversify returns the K most diverse skyline points under the configured
// algorithm.
func (d *Dataset) Diversify(opts Options) (*Result, error) {
	return d.DiversifyContext(context.Background(), opts)
}

// DiversifyContext is Diversify with cancellation and deadline awareness.
// Every stage — skyline computation, fingerprinting, LSH banding, greedy
// selection — checks the context at page/shard granularity, so an expired
// context aborts within one quantum of work.
//
// The pipeline is anytime: on expiry mid-selection the call returns the
// diverse prefix completed so far in a non-nil Result with Partial set,
// together with a non-nil error — ErrDeadlineExceeded (also matching
// context.DeadlineExceeded) when the deadline ran out, or ctx.Err() for a
// plain cancellation. Expiry before the first greedy round yields a non-nil
// Partial result with zero points. Callers that care only about complete
// answers can keep treating any non-nil error as fatal; callers serving
// under latency budgets inspect the partial result instead of discarding
// the completed work.
//
// Resilience (all opt-in): with an admission policy installed
// (SetAdmissionPolicy) the call first acquires a slot — or returns
// ErrOverloaded having done no work. With Options.Budget set, resource
// exhaustion surfaces as ErrBudgetExceeded plus the anytime partial prefix.
// With Options.AllowDegraded, storage failures and spent budgets are served
// by the graceful-degradation ladder instead (Result.Degraded).
func (d *Dataset) DiversifyContext(ctx context.Context, opts Options) (*Result, error) {
	if err := d.checkClosed(); err != nil {
		return nil, err
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("%w: Options.Shards must be non-negative, got %d", ErrInvalidOptions, opts.Shards)
	}
	if lim := d.admissionLimiter(); lim != nil {
		if err := lim.Acquire(ctx); err != nil {
			return nil, err
		}
		defer lim.Release()
	}
	// The read lock spans the whole pipeline (admission is deliberately
	// outside it: shed queries should not delay mutations), so Phase 1 and
	// the selection run against one consistent epoch.
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	if opts.Remote != nil && (opts.Algorithm == MinHash || opts.Algorithm == LSH) {
		return d.diversifyRemote(ctx, opts)
	}
	var tracker *budget.Tracker
	if opts.Budget.Enabled() {
		tracker = budget.NewTracker(opts.Budget)
		var cancel context.CancelFunc
		ctx, cancel = budget.WithContext(ctx, tracker)
		defer cancel()
	}
	res, err := d.attempt(ctx, opts, tracker, nil)
	if err != nil && opts.AllowDegraded {
		return d.degrade(ctx, opts, tracker, res, err)
	}
	return res, err
}

// attempt runs one local pipeline attempt, the only one DiversifyContext and
// its degradation ladder make: a fresh I/O session that charges tracker (when
// there is one) for every page it reads and whose reads observe ctx, the
// skyline, the query checks, and the algorithm. fp, when non-nil, is served
// in place of Phase 1. A Partial result may accompany the error.
func (d *Dataset) attempt(ctx context.Context, opts Options, tracker *budget.Tracker, fp *core.Fingerprint) (*Result, error) {
	sess, err := d.newSession()
	if err != nil {
		return nil, err
	}
	if tracker != nil {
		// Push-based accounting: every logical read the session performs is
		// charged as it happens.
		sess.ObserveReads(tracker.ChargePages)
	}
	sess = sess.Bind(ctx)
	sky, err := d.skylineWith(ctx, sess)
	if err != nil {
		return nil, wrapCtxErr(err)
	}
	if err := d.validateQuery(opts, len(sky)); err != nil {
		return nil, err
	}
	in := core.Input{Data: d.canon, Sky: sky, Tree: sess.Tree(), Session: sess, Cache: d.fpCache, Epoch: d.epoch, Fingerprint: fp}
	res, err := runPipeline(ctx, opts.Algorithm, in, coreConfig(opts))
	return finish(res, err, d.publicResult)
}

// finish converts a pipeline outcome into the public result. A failed run
// keeps its result only when that is the anytime Partial prefix, which then
// travels with the error; deadline expiries are tagged ErrDeadlineExceeded.
func finish(res *core.Result, err error, public func(*core.Result) *Result) (*Result, error) {
	if err != nil && (res == nil || !res.Partial) {
		return nil, wrapCtxErr(err)
	}
	return public(res), wrapCtxErr(err)
}

// validateQuery checks the options of a query over a skyline of m points
// before any allocation they size. Besides K it bounds what a client could
// otherwise turn into an out-of-memory crash: a fingerprint (t×m matrix plus
// hash family) or LSH bit-vectors (m·ζ·B bits) beyond
// minhash.MaxFingerprintBytes, and a shard count above the live row count.
// A remote query's shard count is clamped further, to the folds that fit
// the same cap (cluster.Executor.Fingerprint). Callers hold qmu, so the row
// count is the one the query runs on.
func (d *Dataset) validateQuery(opts Options, m int) error {
	if opts.K < 1 {
		return fmt.Errorf("%w: Options.K must be at least 1", ErrInvalidOptions)
	}
	if opts.K > m {
		return fmt.Errorf("%w: K = %d exceeds skyline size %d", ErrInvalidOptions, opts.K, m)
	}
	t := opts.SignatureSize
	if t == 0 {
		t = core.DefaultSignatureSize
	}
	if !minhash.FingerprintFits(t, m) {
		return fmt.Errorf("%w: SignatureSize %d over %d skyline points exceeds the %d MiB fingerprint cap",
			ErrInvalidOptions, t, m, minhash.MaxFingerprintBytes>>20)
	}
	if opts.Algorithm == LSH {
		p, err := coreConfig(opts).LSHParams()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
		if !lsh.VectorsFit(p, m) {
			return fmt.Errorf("%w: LSH bit-vectors of %d zones × %d buckets over %d skyline points exceed the %d MiB fingerprint cap",
				ErrInvalidOptions, p.Zones, p.Buckets, m, minhash.MaxFingerprintBytes>>20)
		}
	}
	if live := d.canon.LiveLen(); opts.Shards > live {
		return fmt.Errorf("%w: Shards = %d exceeds the %d live rows", ErrInvalidOptions, opts.Shards, live)
	}
	return nil
}

// coreConfig translates public Options into the core pipeline config.
func coreConfig(opts Options) core.Config {
	cfg := core.Config{
		K:             opts.K,
		SignatureSize: opts.SignatureSize,
		Seed:          opts.Seed,
		LSHThreshold:  opts.LSHThreshold,
		LSHBuckets:    opts.LSHBuckets,
		Workers:       opts.Workers,
		NoCache:       opts.NoCache,
	}
	if opts.UseIndex {
		cfg.Mode = core.IndexBased
	}
	return cfg
}

// runPipeline dispatches one diversification attempt to the selected
// algorithm's context-aware pipeline.
func runPipeline(ctx context.Context, algo Algorithm, in core.Input, cfg core.Config) (*core.Result, error) {
	switch algo {
	case MinHash:
		return core.SkyDiverMHCtx(ctx, in, cfg)
	case LSH:
		return core.SkyDiverLSHCtx(ctx, in, cfg)
	case Greedy:
		return core.SimpleGreedyCtx(ctx, in, cfg)
	case Exact:
		return core.BruteForceCtx(ctx, in, cfg)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrInvalidOptions, algo)
	}
}

func (d *Dataset) publicResult(res *core.Result) *Result {
	out := &Result{
		Indexes:           res.DataIndexes,
		Partial:           res.Partial,
		Points:            make([][]float64, len(res.DataIndexes)),
		ObjectiveValue:    res.ObjectiveValue,
		CPUTime:           res.Stats.CPU(),
		IOTime:            res.Stats.IOTime(),
		PageFaults:        res.Stats.IO.Faults,
		MemoryBytes:       res.Stats.MemoryBytes,
		FingerprintCached: res.Stats.FingerprintCached,
		SelectionCached:   res.Stats.SelectionCached,
	}
	for i, idx := range res.DataIndexes {
		out.Points[i] = d.reorient(d.canon.Point(idx))
	}
	return out
}

// ExactDiversity returns the minimum exact Jaccard distance among the given
// dataset indexes (which must be skyline points) — the quality metric of the
// paper's Figures 12 and 13. It issues aggregate range-count queries.
func (d *Dataset) ExactDiversity(indexes []int) (float64, error) {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sky, sess, err := d.skylineSession(context.Background())
	if err != nil {
		return 0, err
	}
	pos := make(map[int]int, len(sky))
	for j, s := range sky {
		pos[s] = j
	}
	set := make([]int, len(indexes))
	for i, idx := range indexes {
		j, ok := pos[idx]
		if !ok {
			return 0, fmt.Errorf("skydiver: index %d is not a skyline point", idx)
		}
		set[i] = j
	}
	oracle := core.NewExactOracle(sess, d.canon, sky)
	return oracle.MinPairwiseJd(set)
}

// Storage-fault sentinels, re-exported from the pager so callers can
// classify injected read failures with errors.Is.
var (
	// ErrTransientFault marks a retryable injected read fault. It only
	// escapes when a read stays faulty through the whole retry budget.
	ErrTransientFault = pager.ErrTransientFault
	// ErrPermanentFault marks a dead page; reads of it never succeed.
	ErrPermanentFault = pager.ErrPermanentFault
)

// FaultPolicy configures synthetic storage faults on the dataset's index
// pages (InjectFaults): the probability Rate that a physical read faults,
// the fraction PermanentRate of faults that kill the page, a Latency added
// to each fault, and the Seed of the deterministic lottery.
type FaultPolicy = pager.FaultPolicy

// ParseFaultPolicy decodes a comma-separated key=value fault description,
// e.g. "rate=0.01,permanent=0.1,latency=2ms,seed=7". Keys: rate, permanent,
// latency, seed; the grammar is ParseBudget's. An empty description is an
// error.
func ParseFaultPolicy(s string) (FaultPolicy, error) { return pager.ParseFaultPolicy(s) }

// InjectFaults installs the fault policy on the dataset's index storage
// (building the index first if necessary). Every read of the index faults
// under it, a remote query's skyline included; a remote query's shard folds
// read the rows, not the index, and never fault. A zero-rate policy removes
// the injector. Transient faults are retried
// transparently with exponential backoff; permanent faults surface as
// errors wrapping ErrPermanentFault from whichever operation touched the
// dead page — never as panics.
func (d *Dataset) InjectFaults(p FaultPolicy) error {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	tr, err := d.ensureIndex()
	if err != nil {
		return err
	}
	var fi *pager.FaultInjector
	if p.Rate != 0 {
		fi, err = pager.NewFaultInjector(p)
		if err != nil {
			return err
		}
	}
	tr.Store().SetFaultInjector(fi)
	return nil
}

// FaultStats reports what fault injection did so far: the number of faults
// injected into the index's read path and the number of retries spent
// recovering transient ones, totaled across every query's I/O session. Both
// are zero without InjectFaults. Safe to call concurrently with running
// queries.
func (d *Dataset) FaultStats() (injected, retries int64) {
	d.mu.Lock()
	tr := d.tree
	d.mu.Unlock()
	if tr == nil {
		return 0, 0
	}
	if fi := tr.Store().FaultInjector(); fi != nil {
		injected = fi.Stats().Injected()
	}
	return injected, tr.AggregateStats().Retries
}

// DominationScore returns |Γ(p)| for the dataset point with the given index:
// the number of points it strictly dominates.
func (d *Dataset) DominationScore(index int) (int, error) {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	sess, err := d.newSession()
	if err != nil {
		return 0, err
	}
	if index < 0 || index >= d.canon.Len() {
		return 0, fmt.Errorf("skydiver: index %d out of range", index)
	}
	return sess.DominanceCount(d.canon.Point(index))
}

// DiversifyRelative selects the k most diverse items of candidates judged
// by their dominance footprints over reference — the generalization sketched
// in the paper's future work, where the diversified set need not be a
// skyline. Both point sets share prefs (nil = minimize everything). It
// returns positions into candidates, in selection order.
func DiversifyRelative(candidates, reference [][]float64, prefs []Pref, k int, opts Options) ([]int, error) {
	a, err := NewDataset("candidates", candidates, prefs)
	if err != nil {
		return nil, err
	}
	b, err := NewDataset("reference", reference, prefs)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		K:             k,
		SignatureSize: opts.SignatureSize,
		Seed:          opts.Seed,
	}
	res, err := core.DiversifyRelative(a.canon, b.canon, cfg)
	if err != nil {
		return nil, err
	}
	return res.Selected, nil
}

// DiversifyGraph runs SkyDiver on an explicit dominance graph: gamma[j]
// holds the identifiers of the items dominated by skyline item j, and no
// coordinates are required (the Figure 1 setting: anonymized relations,
// partially ordered or categorical domains). It returns the positions of the
// K most diverse skyline items in selection order.
func DiversifyGraph(gamma [][]int, k int, opts Options) ([]int, error) {
	cfg := core.Config{
		K:             k,
		SignatureSize: opts.SignatureSize,
		Seed:          opts.Seed,
	}
	res, err := core.DiversifySets(gamma, cfg)
	if err != nil {
		return nil, err
	}
	return res.Selected, nil
}
