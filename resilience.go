// resilience.go wires the serving-resilience features into the public API:
// per-dataset admission control, per-query resource budgets, the storage
// circuit breaker, and the graceful-degradation ladder. Everything here is
// opt-in — a Dataset with no admission policy, no breaker and queries with a
// zero Budget behaves exactly as before, down to the I/O counters.
package skydiver

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"skydiver/internal/admission"
	"skydiver/internal/budget"
	"skydiver/internal/core"
	"skydiver/internal/pager"
	"skydiver/internal/skyline"
)

// Resilience sentinels. Classify with errors.Is.
var (
	// ErrOverloaded marks a query shed by admission control: the dataset's
	// in-flight limit was reached and the wait queue was full, or the queue
	// deadline passed. A shed query did no work at all.
	ErrOverloaded = admission.ErrOverloaded
	// ErrBudgetExceeded marks a query that ran out of its Options.Budget.
	// When the greedy selection had already started, the call also returns
	// the valid partial prefix (Result.Partial), exactly like a deadline
	// expiry — never a silently truncated full result.
	ErrBudgetExceeded = budget.ErrExceeded
	// ErrCircuitOpen marks a read rejected by the dataset's open storage
	// circuit breaker: the page store has been faulting above the trip
	// threshold and reads fail fast instead of burning retry backoff.
	ErrCircuitOpen = pager.ErrCircuitOpen
)

// Budget bounds the resources a single Diversify call may consume. The zero
// value is unlimited. Exhaustion surfaces as an error wrapping
// ErrBudgetExceeded, with the anytime partial prefix when one exists.
type Budget = budget.Budget

// AdmissionPolicy configures a dataset's admission control: MaxInFlight
// concurrent queries, a bounded FIFO wait queue of MaxQueue entries, and an
// optional QueueWait deadline per queued query.
type AdmissionPolicy = admission.Policy

// AdmissionStats reports what admission control has done so far.
type AdmissionStats = admission.Stats

// BreakerPolicy configures the dataset's storage circuit breaker.
type BreakerPolicy = pager.BreakerPolicy

// BreakerState is the breaker's state (closed / open / half-open).
type BreakerState = pager.BreakerState

// Breaker states, re-exported for switch statements on BreakerStats.State.
const (
	BreakerClosed   = pager.BreakerClosed
	BreakerOpen     = pager.BreakerOpen
	BreakerHalfOpen = pager.BreakerHalfOpen
)

// DefaultBreakerPolicy returns the library's default breaker configuration.
func DefaultBreakerPolicy() BreakerPolicy { return pager.DefaultBreakerPolicy() }

// BreakerStats reports the breaker's state and counters.
type BreakerStats = pager.BreakerStats

// Machine-readable degradation reasons reported in Result.DegradedReason.
const (
	// DegradedCachedFingerprint: Phase 1 could not run (storage breaker open
	// or budget spent) and the answer was served from a resident fingerprint
	// with the requested mode and signature size.
	DegradedCachedFingerprint = "cached-fingerprint"
	// DegradedReducedSignature: served from a resident fingerprint whose
	// parameters (signature size, mode or seed) differ from the request —
	// a coarser but still unbiased estimate.
	DegradedReducedSignature = "reduced-signature"
	// DegradedIndexFree: the index pages are unavailable (breaker open), so
	// fingerprinting fell back to the index-free sequential scan of the
	// in-memory data file.
	DegradedIndexFree = "index-free"
	// DegradedBudgetPartial: the budget ran out mid-selection and the valid
	// diverse prefix selected so far is served instead of an error.
	DegradedBudgetPartial = "budget-partial"
)

// ParseBudget decodes a comma-separated key=value budget description, e.g.
// "pages=256,wall=50ms,est=1000000". Keys: pages (max page reads), wall (max
// wall-clock, a Go duration), est (max distance estimations). Omitted keys
// stay unlimited; an empty string is the zero (unlimited) budget.
func ParseBudget(s string) (Budget, error) {
	var b Budget
	if strings.TrimSpace(s) == "" {
		return b, nil
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return Budget{}, fmt.Errorf("skydiver: budget term %q, want key=value", term)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "pages":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return Budget{}, fmt.Errorf("skydiver: budget pages %q, want a non-negative integer", v)
			}
			b.MaxPageReads = n
		case "wall":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Budget{}, fmt.Errorf("skydiver: budget wall %q, want a non-negative duration", v)
			}
			b.MaxWall = d
		case "est":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return Budget{}, fmt.Errorf("skydiver: budget est %q, want a non-negative integer", v)
			}
			b.MaxEstimations = n
		default:
			return Budget{}, fmt.Errorf("skydiver: unknown budget key %q (want pages, wall or est)", k)
		}
	}
	return b, nil
}

// SetAdmissionPolicy installs admission control on the dataset: at most
// MaxInFlight Diversify calls run concurrently, up to MaxQueue more wait in
// FIFO order (each at most QueueWait, when set), and the rest are shed
// immediately with ErrOverloaded. The zero policy removes admission control.
// Admitted queries produce output identical to an unlimited dataset.
//
// Install before (or between) query waves; replacing the limiter while
// queries are in flight orphans their slots in the old limiter, which is
// harmless for correctness but skews the old limiter's final counters.
func (d *Dataset) SetAdmissionPolicy(p AdmissionPolicy) error {
	var lim *admission.Limiter
	if p != (AdmissionPolicy{}) {
		var err error
		lim, err = admission.New(p)
		if err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDatasetClosed
	}
	d.limiter = lim
	return nil
}

// admissionLimiter returns the installed limiter, or nil.
func (d *Dataset) admissionLimiter() *admission.Limiter {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.limiter
}

// AdmissionStats reports admitted / queued / shed counts and the current
// occupancy. Zero without SetAdmissionPolicy. Safe to call concurrently with
// running queries.
func (d *Dataset) AdmissionStats() AdmissionStats {
	if lim := d.admissionLimiter(); lim != nil {
		return lim.Stats()
	}
	return AdmissionStats{}
}

// SetBreakerPolicy installs a storage circuit breaker on the dataset's index
// page store (building the index first if necessary). While the breaker is
// closed it watches the transient-fault rate of physical reads in a sliding
// window; past the trip ratio it opens and reads fail fast with
// ErrCircuitOpen — no retry backoff, no injected fault latency — until
// half-open probes observe a recovered store. The zero policy removes the
// breaker.
func (d *Dataset) SetBreakerPolicy(p BreakerPolicy) error {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	tr, err := d.ensureIndex()
	if err != nil {
		return err
	}
	if p == (BreakerPolicy{}) {
		tr.Store().SetBreaker(nil)
		return nil
	}
	br, err := pager.NewBreaker(p)
	if err != nil {
		return err
	}
	tr.Store().SetBreaker(br)
	return nil
}

// BreakerStats reports the breaker's state, trip/fast-fail/probe counters
// and its current fault window. The bool is false when no breaker is
// installed. Safe to call concurrently with running queries.
func (d *Dataset) BreakerStats() (BreakerStats, bool) {
	d.mu.Lock()
	tr := d.tree
	d.mu.Unlock()
	if tr == nil {
		return BreakerStats{}, false
	}
	br := tr.Store().Breaker()
	if br == nil {
		return BreakerStats{}, false
	}
	return br.Stats(), true
}

// diversifyResilient is the budget/degradation-aware serving path, entered
// only when Options.Budget or Options.AllowDegraded is set (the plain path
// stays byte-for-byte the historical one).
func (d *Dataset) diversifyResilient(ctx context.Context, opts Options) (*Result, error) {
	var tracker *budget.Tracker
	qctx, cancel := ctx, context.CancelFunc(func() {})
	if opts.Budget.Enabled() {
		tracker = budget.NewTracker(opts.Budget)
		qctx, cancel = budget.WithContext(ctx, tracker)
	}
	defer cancel()
	res, err := d.diversifyBudgeted(qctx, opts, tracker, nil)
	if err == nil {
		return res, nil
	}
	if !opts.AllowDegraded {
		return res, err
	}
	return d.degrade(qctx, opts, tracker, res, err)
}

// diversifyBudgeted runs one pipeline attempt with the query's tracker wired
// into the I/O session (every page the session reads counts against the page
// budget) and, when fp is non-nil, with that fingerprint injected in place of
// Phase 1. It mirrors DiversifyContext's error shape: a non-nil Partial
// result may accompany a non-nil error.
func (d *Dataset) diversifyBudgeted(ctx context.Context, opts Options, tracker *budget.Tracker, fp *core.Fingerprint) (*Result, error) {
	sess, err := d.newSession()
	if err != nil {
		return nil, err
	}
	if tracker != nil {
		// Push-based accounting: every logical read the session performs is
		// charged as it happens. A pull-based source (polling Session.Stats)
		// would deadlock — the pool polls ctx.Err() while holding its mutex,
		// and Stats needs that same mutex.
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
	in := core.Input{Data: d.canon, Sky: sky, Tree: sess.Tree(), Session: sess, Cache: d.fpCache, Fingerprint: fp, Epoch: d.epoch}
	cfg := coreConfig(opts)
	res, err := runPipeline(ctx, opts.Algorithm, in, cfg)
	if err != nil {
		if res != nil && res.Partial {
			return d.publicResult(res), wrapCtxErr(err)
		}
		return nil, wrapCtxErr(err)
	}
	return d.publicResult(res), nil
}

// skylineInMemory returns the dataset's skyline, computing it with the exact
// in-memory SFS algorithm if it is not cached yet — the degradation path for
// "storage is unavailable but the rows are resident". The result is cached
// like the BBS one (all skyline algorithms agree on the point set and return
// ascending indexes), so later healthy queries keep identical column order.
func (d *Dataset) skylineInMemory() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sky == nil {
		d.sky = skyline.ComputeSFS(d.canon)
	}
	return d.sky
}

// degrade walks the degradation ladder after a failed attempt:
//
//  1. budget-partial — the budget ran out mid-selection: serve the valid
//     prefix already selected.
//  2. cached-fingerprint / reduced-signature — Phase 1 unavailable: serve
//     from the best resident fingerprint, waiving the exhausted budget
//     dimension (the rung consumes none of it).
//  3. index-free — index pages unavailable but the data file is resident:
//     regenerate signatures with the sequential scan.
//
// Anything else — cancellations, deadline expiries, logic errors — is not
// degradable and passes through unchanged.
func (d *Dataset) degrade(ctx context.Context, opts Options, tracker *budget.Tracker, res *Result, cause error) (*Result, error) {
	var bErr *budget.Error
	budgeted := errors.As(cause, &bErr)
	if budgeted && res != nil && res.Partial && len(res.Indexes) > 0 {
		res.Degraded = true
		res.DegradedReason = DegradedBudgetPartial
		return res, nil
	}
	storageSick := errors.Is(cause, pager.ErrCircuitOpen) ||
		errors.Is(cause, pager.ErrTransientFault) ||
		errors.Is(cause, pager.ErrPermanentFault)
	if !budgeted && !storageSick {
		return res, cause
	}
	if opts.Algorithm != MinHash && opts.Algorithm != LSH {
		// Greedy and Exact evaluate distances against the index itself;
		// there is nothing cheaper to serve them from.
		return res, cause
	}
	if budgeted && tracker != nil {
		// The rungs below do not consume the exhausted resource; lifting its
		// cap keeps the very exhaustion we are working around from vetoing
		// the fallback.
		tracker.Waive(bErr.Dimension)
	}
	// Both rungs need a skyline; get one without touching storage.
	d.skylineInMemory()

	mode := core.IndexFree
	if opts.UseIndex {
		mode = core.IndexBased
	}
	t := opts.SignatureSize
	if t == 0 {
		t = 100
	}
	// The epoch pins substitution to fingerprints of the current dataset
	// state: after a mutation, a stale-epoch signature's columns belong to a
	// different skyline and would be wrong, not merely approximate.
	want := core.FingerprintKey{Epoch: d.epoch, Mode: mode, T: t, Seed: opts.Seed}
	if !opts.NoCache {
		if fp, key, ok := d.fpCache.Substitute(want); ok {
			sub := opts
			sub.SignatureSize = fp.Matrix.T()
			sub.UseIndex = key.Mode == core.IndexBased
			reason := DegradedCachedFingerprint
			if key.Mode != want.Mode || key.T != want.T {
				reason = DegradedReducedSignature
			}
			return finishDegraded(d.diversifyBudgeted(ctx, sub, tracker, fp))(reason)
		}
	}
	// Last rung: regenerate without the resource that failed. Storage
	// failures drop the index — the skyline was already rebuilt in memory
	// above, and SigGen-IF scans the resident data file, never the faulting
	// page store. Budget exhaustion additionally shrinks the signature so the
	// rerun is materially cheaper than the attempt that died.
	sub := opts
	sub.UseIndex = false
	reason := DegradedIndexFree
	if budgeted {
		sub.SignatureSize = reducedSignature(t)
		reason = DegradedReducedSignature
	}
	if tracker != nil {
		// The fallback scans the resident data file — no storage I/O at all —
		// and the page budget exists to protect storage, so it does not apply
		// to this rung even when a different dimension (or the breaker)
		// triggered the degradation. Wall and estimation caps still do.
		tracker.Waive(budget.DimPages)
	}
	return finishDegraded(d.diversifyBudgeted(ctx, sub, tracker, nil))(reason)
}

// reducedSignature is the signature size the last ladder rung regenerates
// with: a quarter of the request, clamped to [16, t].
func reducedSignature(t int) int {
	r := t / 4
	if r < 16 {
		r = 16
	}
	if r > t {
		r = t
	}
	return r
}

// finishDegraded stamps a successful ladder rerun with its reason; a rerun
// that itself ran out of budget mid-selection downgrades to budget-partial,
// and any other failure surfaces unchanged.
func finishDegraded(res *Result, err error) func(reason string) (*Result, error) {
	return func(reason string) (*Result, error) {
		if err == nil {
			res.Degraded = true
			res.DegradedReason = reason
			return res, nil
		}
		if errors.Is(err, budget.ErrExceeded) && res != nil && res.Partial && len(res.Indexes) > 0 {
			res.Degraded = true
			res.DegradedReason = DegradedBudgetPartial
			return res, nil
		}
		return res, err
	}
}
