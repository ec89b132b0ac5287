// resilience.go wires the serving-resilience features into the public API:
// per-dataset admission control, per-query resource budgets, the storage
// circuit breaker, and the graceful-degradation ladder. Everything here is
// opt-in — a Dataset with no admission policy, no breaker and queries with a
// zero Budget behaves exactly as before, down to the I/O counters.
package skydiver

import (
	"context"
	"errors"

	"skydiver/internal/admission"
	"skydiver/internal/budget"
	"skydiver/internal/core"
	"skydiver/internal/pager"
	"skydiver/internal/retry"
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
	ErrCircuitOpen = retry.ErrCircuitOpen
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
type BreakerPolicy = retry.BreakerPolicy

// BreakerState is the breaker's state (closed / open / half-open).
type BreakerState = retry.BreakerState

// Breaker states, re-exported for switch statements on BreakerStats.State.
const (
	BreakerClosed   = retry.BreakerClosed
	BreakerOpen     = retry.BreakerOpen
	BreakerHalfOpen = retry.BreakerHalfOpen
)

// DefaultBreakerPolicy returns the library's default breaker configuration.
func DefaultBreakerPolicy() BreakerPolicy { return retry.DefaultBreakerPolicy() }

// BreakerStats reports the breaker's state and counters.
type BreakerStats = retry.BreakerStats

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
// wall-clock, a Go duration), est (max distance estimations, an integer).
// Omitted keys stay unlimited; an empty string is the zero (unlimited)
// budget. The grammar is the one every policy string shares: keys are
// case-insensitive, and unknown, duplicate, malformed or negative terms are
// rejected.
func ParseBudget(s string) (Budget, error) { return budget.Parse(s) }

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
	br, err := retry.NewBreaker(p)
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
// Rungs 2 and 3 rerun the same attempt as the first try. Anything else —
// cancellations, deadline expiries, logic errors — is not degradable and
// passes through unchanged.
func (d *Dataset) degrade(ctx context.Context, opts Options, tracker *budget.Tracker, res *Result, cause error) (*Result, error) {
	if budgetPartial(res, cause) {
		return stampDegraded(res, DegradedBudgetPartial)
	}
	var bErr *budget.Error
	budgeted := errors.As(cause, &bErr)
	storageSick := errors.Is(cause, retry.ErrCircuitOpen) ||
		errors.Is(cause, pager.ErrTransientFault) ||
		errors.Is(cause, pager.ErrPermanentFault)
	if (!budgeted && !storageSick) || (opts.Algorithm != MinHash && opts.Algorithm != LSH) {
		// Only storage failures and spent budgets degrade, and only for
		// MinHash and LSH: Greedy and Exact evaluate distances against the
		// index itself, so there is nothing cheaper to serve them from.
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
		t = core.DefaultSignatureSize
	}
	// The epoch pins substitution to fingerprints of the current dataset
	// state: after a mutation, a stale-epoch signature's columns belong to a
	// different skyline and would be wrong, not merely approximate.
	want := core.FingerprintKey{Epoch: d.epoch, Mode: mode, T: t, Seed: opts.Seed}
	var (
		fp  *core.Fingerprint
		key core.FingerprintKey
		ok  bool
	)
	if !opts.NoCache {
		fp, key, ok = d.fpCache.Substitute(want)
	}
	sub, reason := opts, DegradedIndexFree
	if ok {
		sub.SignatureSize = fp.Matrix.T()
		sub.UseIndex = key.Mode == core.IndexBased
		reason = DegradedCachedFingerprint
		if key.Mode != want.Mode || key.T != want.T {
			reason = DegradedReducedSignature
		}
	} else {
		// Last rung: regenerate without the resource that failed. Storage
		// failures drop the index — the skyline was already rebuilt in
		// memory above, and SigGen-IF scans the resident data file, never
		// the faulting page store. Budget exhaustion additionally shrinks the
		// signature to a quarter (clamped to [16, t]) so the rerun is
		// materially cheaper than the attempt that died.
		sub.UseIndex = false
		if budgeted {
			sub.SignatureSize = min(max(t/4, 16), t)
			reason = DegradedReducedSignature
		}
		if tracker != nil {
			// The fallback does no storage I/O at all, and the page budget
			// exists to protect storage, so it does not apply to this rung
			// even when a different dimension (or the breaker) triggered the
			// degradation. Wall and estimation caps still do.
			tracker.Waive(budget.DimPages)
		}
	}
	res, err := d.attempt(ctx, sub, tracker, fp)
	if budgetPartial(res, err) {
		// The rerun itself ran out of budget mid-selection.
		reason, err = DegradedBudgetPartial, nil
	}
	if err != nil {
		return res, err
	}
	return stampDegraded(res, reason)
}

// budgetPartial reports whether a failed attempt ran out of budget after
// selecting a non-empty prefix, which the ladder serves as budget-partial.
func budgetPartial(res *Result, err error) bool {
	return errors.Is(err, budget.ErrExceeded) && res != nil && res.Partial && len(res.Indexes) > 0
}

// stampDegraded labels a result served by the ladder with its rung.
func stampDegraded(res *Result, reason string) (*Result, error) {
	res.Degraded = true
	res.DegradedReason = reason
	return res, nil
}
