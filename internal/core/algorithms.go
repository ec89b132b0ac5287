package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	generate := func(fam *minhash.Family) (*Fingerprint, error) {
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
	build := func() (*Fingerprint, *minhash.Family, error) {
		fam, err := minhash.NewFamily(cfg.SignatureSize, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		fp, err := generate(fam)
		return fp, fam, err
	}
	if in.Cache == nil || cfg.NoCache {
		fp, _, err := build()
		return fp, false, err
	}
	cacheBuild := func() (*Fingerprint, error) {
		fp, fam, err := build()
		if fp != nil {
			fp.fam = fam
			fp.lsh = new(atomic.Pointer[lshVectors])
			fp.picks = new(pickOrder)
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
		// Share the (immutable) signatures and the entry's memos, but report
		// no I/O: this query never touched the data file or the index for
		// Phase 1.
		return &Fingerprint{Matrix: fp.Matrix, DomScore: fp.DomScore, lsh: fp.lsh, picks: fp.picks}, true, nil
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

// distance builds a SkyDiver pipeline's selection distance over a
// fingerprint's skyline positions. It also returns the memo slot of the
// greedy's picks under that distance (nil for a fingerprint the cache does
// not hold) and the bytes the distance reads (Stats.MemoryBytes).
type distance func(ctx context.Context, fp *Fingerprint) (metric, *pickOrder, int, error)

// metric is a selection distance as an exact count between two skyline
// positions, the MinHash match count or the LSH Hamming count, and dist[c],
// the distance count c stands for.
type metric struct {
	count func(i, j int) int
	dist  []float64
}

// skyDiver is the SkyDiver pipeline of Sec. 4.2 under one distance. Phase 1
// fingerprints the skyline, or reuses the cached fingerprint, and builds the
// distance over it. Phase 2 is the greedy selection of Fig. 6, seeded with
// the point of maximum domination score and breaking ties by score; it is
// served from the stored pick order when that holds at least k picks (a
// hit the input's cache counts). Otherwise it reuses the distances the
// slot keeps (rowDist), and a completed selection stores its order with
// them. On context expiry the run returns the anytime Partial result with
// the context's error: the prefix selected so far, or none when expiry
// struck in Phase 1.
func skyDiver(ctx context.Context, in Input, cfg Config, dist distance) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, err
	}
	stats := Stats{Model: pager.DefaultCostModel()}
	start := time.Now()
	fp, cached, err := fingerprint(ctx, in, cfg)
	var (
		met   metric
		picks *pickOrder
	)
	if err == nil {
		stats.FingerprintCached, stats.IO = cached, fp.IO
		met, picks, stats.MemoryBytes, err = dist(ctx, fp)
	}
	stats.Fingerprint = time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, nil, nil, stats), ctx.Err()
		}
		return nil, err
	}

	start = time.Now()
	d := chargeEstimations(ctx, func(i, j int) float64 { return met.dist[met.count(i, j)] })
	selected := picks.prefix(cfg.K)
	if selected != nil {
		in.Cache.selectionHit()
		stats.SelectionCached = true
	} else {
		rd := newRowDist(ctx, met, picks, len(in.Sky), fp.Matrix.T())
		selected, err = dispersion.SelectDiverseSetCtx(ctx, len(in.Sky), cfg.K, rd.dist, fp.DomScore)
		if err == nil {
			picks.store(selected, rd.kept())
		}
		if stats.EstimatesReused = rd.reused; rd.reused > 0 {
			in.Cache.estimatesReused(rd.reused)
		}
	}
	stats.Select = time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			return partialResult(in, selected, d, stats), ctx.Err()
		}
		return nil, err
	}
	return &Result{
		Selected:       selected,
		DataIndexes:    in.dataIndexes(selected),
		ObjectiveValue: dispersion.MinPairwise(selected, d),
		Stats:          stats,
	}, nil
}

// rowDist is one greedy selection's distance over a fingerprint, which
// asks for the distance from a candidate to a pick. A count the pick-order
// slot keeps for the pick is reused; any other is counted live, charged to
// the query's budget, and kept in the selection's row for the pick, which
// the slot stores once the selection completes. Concurrent readers share
// the slot's rows and never write them: a stored row is copied before the
// selection first writes it. Past limit rows (the signature size, so the
// rows never outgrow the matrix) a pick's counts are not kept.
type rowDist struct {
	met     metric
	tracker *budget.Tracker
	stored  []countRow
	rowOf   []int32 // column → 1 + its row in rows; 0 before it is a pick, -1 past the limit
	rows    []countRow
	owned   []bool // owned[r]: rows[r] is this selection's, not the slot's
	limit   int
	reused  int
}

// newRowDist reads the rows picks keeps over m skyline positions and
// keeps at most t rows of its own; a nil picks keeps none.
func newRowDist(ctx context.Context, met metric, picks *pickOrder, m, t int) *rowDist {
	rd := &rowDist{met: met, tracker: budget.From(ctx), rowOf: make([]int32, m)}
	if picks != nil {
		rd.limit = t
		if p := picks.load(); p != nil {
			rd.stored = p.rows
		}
	}
	return rd
}

// dist is the selection distance from item i to pick j.
func (rd *rowDist) dist(i, j int) float64 {
	r := rd.rowOf[j]
	if r == 0 {
		r = rd.open(j)
	}
	if r < 0 {
		return rd.met.dist[rd.live(i, j)]
	}
	counts := rd.rows[r-1].counts
	if c := counts[i]; c != unknownCount {
		rd.reused++
		return rd.met.dist[c]
	}
	c := rd.live(i, j)
	if !rd.owned[r-1] {
		counts = slices.Clone(counts)
		rd.rows[r-1].counts, rd.owned[r-1] = counts, true
	}
	counts[i] = int32(c)
	return rd.met.dist[c]
}

// open gives pick j its row: the stored one, or a new unknown row.
func (rd *rowDist) open(j int) int32 {
	if len(rd.rows) >= rd.limit {
		rd.rowOf[j] = -1
		return -1
	}
	row := countRow{col: j}
	for _, s := range rd.stored {
		if s.col == j {
			row.counts = s.counts
			break
		}
	}
	owned := row.counts == nil
	if owned {
		row.counts = make([]int32, len(rd.rowOf))
		for i := range row.counts {
			row.counts[i] = unknownCount
		}
	}
	rd.rows = append(rd.rows, row)
	rd.owned = append(rd.owned, owned)
	rd.rowOf[j] = int32(len(rd.rows))
	return rd.rowOf[j]
}

// kept returns the rows to store with the selection's picks: its own,
// then the stored rows of columns it never met as picks, up to the limit,
// so a shorter selection does not drop distances a longer one reads.
func (rd *rowDist) kept() []countRow {
	rows := rd.rows
	for _, s := range rd.stored {
		if len(rows) >= rd.limit {
			break
		}
		if rd.rowOf[s.col] == 0 {
			rows = append(rows, s)
		}
	}
	return rows
}

// live counts the distance between i and j, charging one estimate.
func (rd *rowDist) live(i, j int) int {
	if rd.tracker != nil {
		rd.tracker.ChargeEstimations(1)
	}
	return rd.met.count(i, j)
}

// SkyDiverMH is the full MinHash pipeline (Section 4.2.1): fingerprint, then
// greedily select k points under the estimated Jaccard distance, seeding
// with the point of maximum domination score and breaking ties by score. A
// fingerprint from the cache keeps the greedy's pick order, so a later read
// of at most as many points takes its first k picks without selecting.
func SkyDiverMH(in Input, cfg Config) (*Result, error) {
	return SkyDiverMHCtx(context.Background(), in, cfg)
}

// SkyDiverMHCtx is SkyDiverMH with cancellation and anytime semantics: on
// context expiry mid-selection it returns the diverse prefix chosen so far
// as a Partial result alongside the context's error; expiry during
// fingerprinting yields an empty Partial result (no selection exists yet).
// A read served from the stored pick order runs no selection, so it
// completes and is charged only the objective's estimates.
func SkyDiverMHCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	return skyDiver(ctx, in, cfg, func(_ context.Context, fp *Fingerprint) (metric, *pickOrder, int, error) {
		t := fp.Matrix.T()
		// 1 − c/t is the expression EstimateJd evaluates, so a count gives
		// the estimate bit for bit.
		jd := make([]float64, t+1)
		for c := range jd {
			jd[c] = 1 - float64(c)/float64(t)
		}
		return metric{count: fp.Matrix.Matches, dist: jd}, fp.picks, fp.Matrix.MemoryBytes(), nil
	})
}

// SkyDiverLSH is the LSH pipeline (Section 4.2.2): fingerprint, band the
// signatures into bucket bit-vectors, then select greedily under the
// Hamming distance of the bit-vectors. A fingerprint from the cache reuses
// the bit-vectors memoized with it when the banding and seed match, and
// the pick order stored with them (see SkyDiverMH).
func SkyDiverLSH(in Input, cfg Config) (*Result, error) {
	return SkyDiverLSHCtx(context.Background(), in, cfg)
}

// SkyDiverLSHCtx is SkyDiverLSH with cancellation and anytime semantics
// (see SkyDiverMHCtx). Banding the signatures counts as Phase 1.
func SkyDiverLSHCtx(ctx context.Context, in Input, cfg Config) (*Result, error) {
	return skyDiver(ctx, in, cfg, func(ctx context.Context, fp *Fingerprint) (metric, *pickOrder, int, error) {
		params, err := cfg.LSHParams()
		if err != nil {
			return metric{}, nil, 0, err
		}
		vectors, picks, err := fp.bitVectors(ctx, params, cfg.Seed+1)
		if err != nil {
			return metric{}, nil, 0, err
		}
		// Every vector has one bit set per zone, so two differ in at most
		// 2ζ bits.
		hamming := make([]float64, 2*params.Zones+1)
		for c := range hamming {
			hamming[c] = float64(c)
		}
		return metric{count: vectors.Hamming, dist: hamming}, picks, vectors.MemoryBytes(), nil
	})
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
	oracle, stats, err := exactOracle(in, cfg, "Simple-Greedy")
	if err != nil {
		return nil, err
	}
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

// exactOracle is the prologue of the exact baselines, Simple-Greedy and
// Brute-Force (named by baseline in the error): the config and tree checks,
// the exact-distance oracle over the query's reader, and the run's Stats,
// charged with the pages the reader reads from here on.
func exactOracle(in Input, cfg Config, baseline string) (*ExactOracle, func() Stats, error) {
	if err := cfg.validate(len(in.Sky)); err != nil {
		return nil, nil, err
	}
	if in.Tree == nil {
		return nil, nil, fmt.Errorf("core: %s requires a tree", baseline)
	}
	r := in.reader()
	before, start := r.Stats(), time.Now()
	stats := func() Stats {
		return Stats{Select: time.Since(start), IO: r.Stats().Sub(before), Model: pager.DefaultCostModel()}
	}
	return NewExactOracle(r, in.Data, in.Sky), stats, nil
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
	oracle, stats, err := exactOracle(in, cfg, "Brute-Force")
	if err != nil {
		return nil, err
	}
	m := len(in.Sky)
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
