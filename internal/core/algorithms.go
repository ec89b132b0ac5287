package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"skydiver/internal/budget"
	"skydiver/internal/data"
	"skydiver/internal/dispersion"
	"skydiver/internal/lsh"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// FingerprintMode selects how Phase 1 generates signatures.
type FingerprintMode int

// Fingerprinting modes.
const (
	// IndexFree runs SigGen-IF: one sequential pass over the data file.
	IndexFree FingerprintMode = iota
	// IndexBased runs SigGen-IB over the aggregate R*-tree.
	IndexBased
)

// String names the mode as the paper does (IF/IB).
func (m FingerprintMode) String() string {
	if m == IndexBased {
		return "IB"
	}
	return "IF"
}

// Config parameterizes a SkyDiver run.
type Config struct {
	// K is the number of diverse skyline points to select.
	K int
	// SignatureSize is t, the number of MinHash slots (default 100, the
	// paper's default after Figure 8/12).
	SignatureSize int
	// Mode selects index-free or index-based fingerprinting.
	Mode FingerprintMode
	// Seed drives the hash family and LSH zone keys.
	Seed int64
	// LSHThreshold is ξ; used by SkyDiverLSH only (default 0.2).
	LSHThreshold float64
	// LSHBuckets is B, the buckets per zone; used by SkyDiverLSH only
	// (default 20).
	LSHBuckets int
	// Workers parallelizes the fingerprint pass across goroutines
	// (index-free row ranges or index-based subtree traversals; 0 or 1 =
	// sequential; <0 = GOMAXPROCS). The selection always runs the
	// sequential lazy greedy loop. Output is bit-for-bit identical to the
	// sequential run for any value; in IndexBased mode the hit/fault split
	// of the I/O counters may vary with scheduling.
	Workers int
	// NoCache bypasses the fingerprint cache for this run: Phase 1 always
	// executes, and its result is not stored. The knob for measuring cold
	// costs against a warm serving process.
	NoCache bool
}

// DefaultSignatureSize is the signature length t used when the config
// leaves it zero (100, the paper's default after Figure 8/12).
const DefaultSignatureSize = 100

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SignatureSize == 0 {
		c.SignatureSize = DefaultSignatureSize
	}
	if c.LSHThreshold == 0 {
		c.LSHThreshold = 0.2
	}
	if c.LSHBuckets == 0 {
		c.LSHBuckets = 20
	}
	return c
}

// LSHParams returns the banding SkyDiverLSH runs with: lsh.ChooseParams of
// the signature size, ξ and B, defaults filled in.
func (c Config) LSHParams() (lsh.Params, error) {
	c = c.withDefaults()
	return lsh.ChooseParams(c.SignatureSize, c.LSHThreshold, c.LSHBuckets)
}

func (c Config) validate(m int) error {
	if c.K < 1 {
		return fmt.Errorf("core: non-positive k %d", c.K)
	}
	if c.K > m {
		return fmt.Errorf("core: k %d exceeds skyline size %d", c.K, m)
	}
	return nil
}

// Input bundles what every pipeline needs: the dataset, its skyline (dataset
// indexes) and, for index-based operation, the aggregate R*-tree.
type Input struct {
	Data *data.Dataset
	Sky  []int
	Tree *rtree.Tree // required for IndexBased fingerprinting, SG and BF
	// Session, when non-nil, is the per-query I/O session the pipeline
	// charges its index I/O to — the race-free path for concurrent serving.
	// When nil, index I/O goes through the tree's default pool (the legacy
	// shared-cache accounting used by the experiment harness).
	Session *rtree.Session
	// Cache, when non-nil, memoizes Phase-1 fingerprints across queries
	// with singleflight semantics. It must belong to the dataset: keys do
	// not identify the data, only the generator parameters and the epoch.
	Cache *FingerprintCache
	// Epoch is the dataset's mutation epoch, carried into every cache key so
	// signatures built before a mutation are never served after it. Immutable
	// datasets leave it zero.
	Epoch uint64
	// Fingerprint, when non-nil, is injected as the Phase-1 result: the
	// pipeline skips signature generation entirely (no Phase-1 work or I/O)
	// and reports a cache hit. The graceful-degradation ladder uses it to
	// serve a substitute fingerprint when storage is unavailable or the
	// query's budget is spent. Its Matrix.T() must match the config's
	// SignatureSize for pipelines that band signatures (LSH).
	Fingerprint *Fingerprint
	// Builder, when non-nil, replaces the built-in Phase-1 generators: the
	// cache (when enabled) calls it to build the fingerprint on a miss, so
	// singleflight and epoch-keying still apply. It receives the
	// pipeline's hash family, of the configured signature size and seed.
	// The cluster executor uses it to source signatures from remote shard
	// workers, and the streaming, relative, dominance-graph and mixed-table
	// entry points to fold their own rows. Builder output must be in the
	// index-free universe (global row ids), and is keyed as such
	// regardless of the configured mode.
	Builder func(ctx context.Context, fam *minhash.Family) (*Fingerprint, error)
}

// reader returns the index reader the pipeline should query: the per-query
// session when one was checked out, the tree's default pool otherwise.
func (in Input) reader() rtree.Reader {
	if in.Session != nil {
		return in.Session
	}
	return in.Tree
}

func (in Input) dataIndexes(selected []int) []int {
	out := make([]int, len(selected))
	for i, s := range selected {
		out[i] = in.Sky[s]
	}
	return out
}

// fingerprint runs Phase 1 according to the config, consulting the input's
// fingerprint cache first (unless bypassed). The bool reports a cache hit:
// the signatures were reused from a previous query — or from another query's
// in-flight build — and this run performed no Phase-1 work or I/O, which is
// why a hit's Fingerprint carries zero IO stats regardless of what the
// original build paid.
func fingerprint(ctx context.Context, in Input, cfg Config) (*Fingerprint, bool, error) {
	if in.Fingerprint != nil {
		// Injected by the caller (degradation ladder): share the immutable
		// signatures, report no I/O, count as a hit.
		return &Fingerprint{Matrix: in.Fingerprint.Matrix, DomScore: in.Fingerprint.DomScore}, true, nil
	}
	fam, err := minhash.NewFamily(cfg.SignatureSize, cfg.Seed)
	if err != nil {
		return nil, false, err
	}
	build := func() (*Fingerprint, error) {
		if in.Builder != nil {
			return in.Builder(ctx, fam)
		}
		if cfg.Mode == IndexBased {
			if in.Tree == nil {
				return nil, fmt.Errorf("core: index-based fingerprinting requires a tree")
			}
			if cfg.Workers != 0 && cfg.Workers != 1 {
				return SigGenIBParallelCtx(ctx, in.reader(), in.Data, in.Sky, fam, cfg.Workers)
			}
			return SigGenIBCtx(ctx, in.reader(), in.Data, in.Sky, fam)
		}
		if cfg.Workers != 0 && cfg.Workers != 1 {
			return SigGenIFParallelCtx(ctx, in.Data, in.Sky, fam, cfg.Workers)
		}
		return SigGenIFCtx(ctx, in.Data, in.Sky, fam)
	}
	if in.Cache == nil || cfg.NoCache {
		fp, err := build()
		return fp, false, err
	}
	cacheBuild := func() (*Fingerprint, error) {
		fp, err := build()
		if fp != nil {
			fp.lsh = new(atomic.Pointer[lshVectors])
		}
		return fp, err
	}
	key := FingerprintKey{Epoch: in.Epoch, Mode: cfg.Mode, T: cfg.SignatureSize, Seed: cfg.Seed}
	if in.Builder != nil {
		// Builder output is IF content (global row ids): key it as such so
		// it shares cache lines with — and never masquerades as — an
		// index-based build.
		key.Mode = IndexFree
	}
	fp, cached, err := in.Cache.Get(ctx, key, cacheBuild)
	if err != nil {
		return nil, false, err
	}
	if cached {
		// Share the (immutable) signatures and the entry's LSH memo, but
		// report no I/O: this query never touched the data file or the index
		// for Phase 1.
		return &Fingerprint{Matrix: fp.Matrix, DomScore: fp.DomScore, lsh: fp.lsh}, true, nil
	}
	return fp, false, nil
}

// chargeEstimations wraps the distance callback with budget accounting when
// the context carries a tracker, so MaxEstimations bounds Phase-2 work at the
// same Err-poll granularity as cancellation and counts the estimates the
// selection actually makes. Without a tracker the callback is returned
// unchanged, keeping the unbudgeted hot path free of atomics.
func chargeEstimations(ctx context.Context, dist dispersion.DistFunc) dispersion.DistFunc {
	tr := budget.From(ctx)
	if tr == nil {
		return dist
	}
	return func(i, j int) float64 {
		tr.ChargeEstimations(1)
		return dist(i, j)
	}
}

// partialResult packages the anytime prefix of a cancelled run: the greedy
// rounds completed so far form a valid diverse selection, so the caller gets
// them back (flagged Partial) instead of losing the work. selected may be
// nil when cancellation struck before the first round.
func partialResult(in Input, selected []int, dist dispersion.DistFunc, stats Stats) *Result {
	if selected == nil {
		selected = []int{}
	}
	obj := 0.0
	if len(selected) > 1 && dist != nil {
		obj = dispersion.MinPairwise(selected, dist)
	}
	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: obj,
		Partial:        true,
		Stats:          stats,
	}
}

// SkyDiverMH is the full MinHash pipeline (Section 4.2.1): fingerprint, then
// greedily select k points under the estimated Jaccard distance, seeding
// with the point of maximum domination score and breaking ties by score.
func SkyDiverMH(in Input, cfg Config) (*Result, error) {
	return SkyDiverMHCtx(context.Background(), in, cfg)
}

// SkyDiverMHCtx is SkyDiverMH with cancellation and anytime semantics: on
// context expiry mid-selection it returns the diverse prefix chosen so far
// as a Partial result alongside the context's error; expiry during
// fingerprinting yields an empty Partial result (no selection exists yet).
func SkyDiverMHCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, err
	}
	start := time.Now()
	fp, cached, err := fingerprint(ctx, in, cfg)
	fpTime := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, nil, nil, Stats{Fingerprint: fpTime, Model: pager.DefaultCostModel()}), ctx.Err()
		}
		return nil, err
	}

	start = time.Now()
	dist := chargeEstimations(ctx, func(i, j int) float64 { return fp.Matrix.EstimateJd(i, j) })
	selected, err := dispersion.SelectDiverseSetCtx(ctx, len(in.Sky), cfg.K, dist, fp.DomScore)
	selTime := time.Since(start)
	stats := Stats{
		Fingerprint:       fpTime,
		FingerprintCached: cached,
		Select:            selTime,
		IO:                fp.IO,
		Model:             pager.DefaultCostModel(),
		MemoryBytes:       fp.Matrix.MemoryBytes(),
	}
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, selected, dist, stats), ctx.Err()
		}
		return nil, err
	}
	obj := dispersion.MinPairwise(selected, dist)

	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: obj,
		Stats:          stats,
	}, nil
}

// SkyDiverLSH is the LSH pipeline (Section 4.2.2): fingerprint, band the
// signatures into bucket bit-vectors, then select greedily under the
// Hamming distance of the bit-vectors. A fingerprint from the cache reuses
// the bit-vectors memoized with it when the banding and seed match.
func SkyDiverLSH(in Input, cfg Config) (*Result, error) {
	return SkyDiverLSHCtx(context.Background(), in, cfg)
}

// SkyDiverLSHCtx is SkyDiverLSH with cancellation and anytime semantics
// (see SkyDiverMHCtx).
func SkyDiverLSHCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, err
	}
	start := time.Now()
	fp, cached, err := fingerprint(ctx, in, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, nil, nil, Stats{Fingerprint: time.Since(start), Model: pager.DefaultCostModel()}), ctx.Err()
		}
		return nil, err
	}
	params, err := cfg.LSHParams()
	if err != nil {
		return nil, err
	}
	vectors, err := fp.bitVectors(ctx, params, cfg.Seed+1)
	fpTime := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, nil, nil, Stats{Fingerprint: fpTime, IO: fp.IO, Model: pager.DefaultCostModel()}), ctx.Err()
		}
		return nil, err
	}

	start = time.Now()
	dist := chargeEstimations(ctx, func(i, j int) float64 { return float64(vectors.Hamming(i, j)) })
	selected, err := dispersion.SelectDiverseSetCtx(ctx, len(in.Sky), cfg.K, dist, fp.DomScore)
	selTime := time.Since(start)
	stats := Stats{
		Fingerprint:       fpTime,
		FingerprintCached: cached,
		Select:            selTime,
		IO:                fp.IO,
		Model:             pager.DefaultCostModel(),
		MemoryBytes:       vectors.MemoryBytes(),
	}
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, selected, dist, stats), ctx.Err()
		}
		return nil, err
	}
	obj := dispersion.MinPairwise(selected, dist)

	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: obj,
		Stats:          stats,
	}, nil
}

// SimpleGreedy is the baseline of Section 3.2: the same greedy selection,
// but every distance evaluation issues exact range-count queries on the
// R*-tree (one common-dominance count per pair, plus one dominance count per
// skyline point for the scores). Its cost is dominated by this query I/O.
func SimpleGreedy(in Input, cfg Config) (*Result, error) {
	return SimpleGreedyCtx(context.Background(), in, cfg)
}

// SimpleGreedyCtx is SimpleGreedy with cancellation and anytime semantics:
// the context is checked inside the greedy selection (which issues the range
// queries through the distance oracle), and expiry returns the prefix
// selected so far as a Partial result. An oracle failure (e.g. a dead page
// under fault injection) aborts the selection immediately and surfaces the
// oracle's error — never a Partial result silently built on bogus distances.
// A read that a session bound to ctx refused because ctx ended is expiry,
// not an oracle failure: the loop appends a pick before it evaluates that
// pick's distances and stops at the next poll, so no pick it returns ever
// depended on the refused read.
func SimpleGreedyCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, err
	}
	if in.Tree == nil {
		return nil, fmt.Errorf("core: Simple-Greedy requires a tree")
	}
	r := in.reader()
	before := r.Stats()
	start := time.Now()
	stats := func() Stats {
		return Stats{Select: time.Since(start), IO: r.Stats().Sub(before), Model: pager.DefaultCostModel()}
	}
	oracle := NewExactOracle(r, in.Data, in.Sky)
	scores, err := oracle.DomScores()
	if err != nil {
		if expired(ctx, err) {
			return partialResult(in, nil, nil, stats()), ctx.Err()
		}
		return nil, err
	}
	// A failed oracle call poisons every later distance, so the first error
	// cancels the selection: greedy stops within one check stride instead of
	// grinding on (and charging I/O for) corrupted comparisons.
	var firstErr error
	dist := chargeEstimations(ctx, func(i, j int) float64 {
		d, err := oracle.Jd(i, j)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return d
	})
	selCtx := &abortCtx{Context: ctx, failed: &firstErr}
	// The eager loop, not the lazy one: the paper charges this baseline k·m
	// exact probes, and its I/O is pinned to their order and number.
	selected, err := dispersion.SelectDiverseSetEagerCtx(selCtx, len(in.Sky), cfg.K, dist, scores)
	if firstErr != nil && !expired(ctx, firstErr) {
		// Checked before the context: a partial prefix whose distances came
		// from a failing oracle is not a valid anytime answer.
		return nil, firstErr
	}
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, selected, dist, stats()), ctx.Err()
		}
		return nil, err
	}
	// The selected pairs' distances are memoized by the oracle, so this
	// issues no reads.
	obj := dispersion.MinPairwise(selected, dist)

	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: obj,
		Stats:          stats(),
	}, nil
}

// abortCtx makes an error raised inside a distance callback look like a
// cancellation to the polling loop around it, while delegating live checks
// to the parent context unchanged (including custom poll-counting contexts
// that override only Err). The selection loop and the callback run on one
// goroutine, so the plain pointer read is race-free.
type abortCtx struct {
	context.Context
	failed *error
}

func (c *abortCtx) Err() error {
	if *c.failed != nil {
		return context.Canceled
	}
	return c.Context.Err()
}

// expired reports whether err is a read refused because ctx ended:
// cancelled, past its deadline or out of budget.
func expired(ctx context.Context, err error) bool {
	return ctx.Err() != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, budget.ErrExceeded))
}

// BruteForce is the exhaustive baseline of Section 3.2: all pairwise exact
// Jaccard distances, then enumeration of all C(m, k) subsets for the optimal
// k-MMDP value. Exponential in k; only run it on small skylines.
func BruteForce(in Input, cfg Config) (*Result, error) {
	return BruteForceCtx(context.Background(), in, cfg)
}

// BruteForceCtx is BruteForce with cancellation: the context is checked once
// per distance-matrix row and periodically during subset enumeration. On
// expiry mid-enumeration the best subset found so far is returned as a
// Partial result (anytime, but without the optimality guarantee); expiry
// during matrix construction, including a read refused because ctx ended,
// yields an empty Partial result.
func BruteForceCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, err
	}
	if in.Tree == nil {
		return nil, fmt.Errorf("core: Brute-Force requires a tree")
	}
	r := in.reader()
	before := r.Stats()
	start := time.Now()
	oracle := NewExactOracle(r, in.Data, in.Sky)
	m := len(in.Sky)
	stats := func() Stats {
		return Stats{
			Select: time.Since(start),
			IO:     r.Stats().Sub(before),
			Model:  pager.DefaultCostModel(),
		}
	}
	// Materialize the full distance matrix (the O(m²) cost of Section 3.2).
	dmat := make([]float64, m*m)
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return partialResult(in, nil, nil, stats()), err
		}
		for j := i + 1; j < m; j++ {
			d, err := oracle.Jd(i, j)
			if err != nil {
				if expired(ctx, err) {
					return partialResult(in, nil, nil, stats()), ctx.Err()
				}
				return nil, err
			}
			dmat[i*m+j] = d
			dmat[j*m+i] = d
		}
	}
	dist := chargeEstimations(ctx, func(i, j int) float64 { return dmat[i*m+j] })
	selected, obj, err := dispersion.BruteForceCtx(ctx, m, cfg.K, dist, dispersion.MaxMin)
	if err != nil {
		if ctx.Err() != nil {
			res := partialResult(in, selected, dist, stats())
			if len(selected) > 1 {
				res.ObjectiveValue = obj
			}
			return res, ctx.Err()
		}
		return nil, err
	}

	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: obj,
		Stats:          stats(),
	}, nil
}

// DiversifySets runs the framework on an explicit dominance graph: lists[j]
// holds the row ids dominated by skyline point j, and no coordinates are
// needed (Figure 1's setting). It is SkyDiver-MH over SigGenSets'
// fingerprint; Selected and DataIndexes are both positions in lists.
func DiversifySets(lists [][]int, cfg Config) (*Result, error) {
	in := Input{Sky: positions(len(lists)), Builder: func(_ context.Context, fam *minhash.Family) (*Fingerprint, error) {
		return SigGenSets(lists, fam)
	}}
	return SkyDiverMHCtx(context.Background(), in, cfg)
}
