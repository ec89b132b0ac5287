// Package budget enforces per-query resource budgets over the SkyDiver
// serving path: a hard ceiling on logical page reads, wall-clock time and
// distance estimations for one query.
//
// Enforcement piggybacks on the context plumbing the pipelines already have:
// a Tracker is attached to the query's context, every stage keeps polling
// ctx.Err() at page/shard granularity exactly as it does for cancellation,
// and an exhausted budget surfaces there as an error wrapping ErrExceeded.
// The anytime machinery downstream then returns the valid partial prefix —
// budget exhaustion is never a silent truncation, always a flagged partial
// (or degraded) result.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"skydiver/internal/fault"
)

// ErrExceeded marks a query that ran out of its resource budget. Errors
// returned by budget-aware contexts wrap it, so callers classify with
// errors.Is and read the exhausted dimension from the *Error.
var ErrExceeded = errors.New("skydiver: query budget exceeded")

// Budget bounds the resources one query may consume. The zero value means
// unlimited on every dimension.
type Budget struct {
	// MaxPageReads caps logical page accesses: buffer-pool reads (hits and
	// faults alike) plus the pages a sequential data scan touches. 0 = no cap.
	MaxPageReads int64
	// MaxWall caps the query's wall-clock time. Unlike a context deadline the
	// expiry is reported as ErrExceeded, not context.DeadlineExceeded, so
	// callers can tell "the per-query budget ran out" from "the caller's own
	// deadline passed". 0 = no cap.
	MaxWall time.Duration
	// MaxEstimations caps pairwise distance evaluations (MinHash estimates,
	// Hamming distances, exact Jaccard oracle calls), counted as the
	// selection makes them: the lazy greedy loop skips the ones that cannot
	// change its picks. 0 = no cap.
	MaxEstimations int64
}

// Enabled reports whether any dimension is bounded.
func (b Budget) Enabled() bool {
	return b.MaxPageReads > 0 || b.MaxWall > 0 || b.MaxEstimations > 0
}

func (b *Budget) fields() []fault.Field {
	return []fault.Field{
		fault.Count("pages", &b.MaxPageReads),
		fault.Duration("wall", &b.MaxWall),
		fault.Count("est", &b.MaxEstimations),
	}
}

// Parse decodes a comma-separated key=value budget description in the
// internal/fault grammar, e.g. "pages=256,wall=50ms,est=1000000". Keys: pages
// (max page reads), wall (max wall-clock, a Go duration), est (max distance
// estimations), each non-negative. Omitted keys stay unlimited; an empty
// string is the zero (unlimited) budget.
func Parse(s string) (Budget, error) {
	var b Budget
	if err := fault.Parse(s, b.fields()...); err != nil {
		return Budget{}, fmt.Errorf("skydiver: budget: %w", err)
	}
	return b, nil
}

// String renders the budget in Parse's format, leaving out unlimited
// dimensions; the zero budget renders as "".
func (b Budget) String() string { return fault.Format(true, b.fields()...) }

// Dimension names, as reported in Error.Dimension and degradation reasons.
const (
	DimPages       = "page-reads"
	DimWall        = "wall-clock"
	DimEstimations = "estimations"
)

// Error reports which budget dimension was exhausted. It wraps ErrExceeded.
type Error struct {
	// Dimension is one of the Dim* constants.
	Dimension string
	// Used and Limit quantify the exhaustion (nanoseconds for wall-clock).
	Used, Limit int64
}

// Error formats the exhaustion for logs.
func (e *Error) Error() string {
	if e.Dimension == DimWall {
		return fmt.Sprintf("%v: %s budget spent (%v of %v)", ErrExceeded,
			e.Dimension, time.Duration(e.Used), time.Duration(e.Limit))
	}
	return fmt.Sprintf("%v: %s budget spent (%d of %d)", ErrExceeded, e.Dimension, e.Used, e.Limit)
}

// Unwrap ties the error to the ErrExceeded sentinel.
func (e *Error) Unwrap() error { return ErrExceeded }

// Tracker accumulates one query's resource consumption against its Budget.
// It is safe for concurrent use by the query's own workers (parallel
// fingerprint shards, selection shards); it must not be shared between
// queries.
type Tracker struct {
	start time.Time

	maxWall  atomic.Int64 // nanoseconds, 0 = unlimited
	maxPages atomic.Int64
	maxEst   atomic.Int64

	pages atomic.Int64
	est   atomic.Int64
}

// NewTracker creates a tracker for b, starting its wall clock now.
func NewTracker(b Budget) *Tracker {
	t := &Tracker{start: time.Now()}
	t.maxWall.Store(int64(b.MaxWall))
	t.maxPages.Store(b.MaxPageReads)
	t.maxEst.Store(b.MaxEstimations)
	return t
}

// ChargePages records n page reads: a session's buffer-pool reads, pushed
// as they happen (rtree.Session.ObserveReads), and the pages a sequential
// data scan touches.
func (t *Tracker) ChargePages(n int64) { t.pages.Add(n) }

// ChargeEstimations records n distance evaluations.
func (t *Tracker) ChargeEstimations(n int64) { t.est.Add(n) }

// PageReads returns the pages charged so far.
func (t *Tracker) PageReads() int64 { return t.pages.Load() }

// Estimations returns the distance evaluations consumed so far.
func (t *Tracker) Estimations() int64 { return t.est.Load() }

// WallDeadline returns the absolute wall-budget expiry and whether one is
// set.
func (t *Tracker) WallDeadline() (time.Time, bool) {
	if w := t.maxWall.Load(); w > 0 {
		return t.start.Add(time.Duration(w)), true
	}
	return time.Time{}, false
}

// Waive lifts the cap on one dimension (Dim* constant) for the rest of the
// query. The graceful-degradation ladder uses it so that a fallback that
// cannot consume the exhausted resource — e.g. serving a cached fingerprint
// after the page budget ran out — is not vetoed by the very exhaustion it
// works around.
func (t *Tracker) Waive(dimension string) {
	switch dimension {
	case DimPages:
		t.maxPages.Store(0)
	case DimWall:
		t.maxWall.Store(0)
	case DimEstimations:
		t.maxEst.Store(0)
	}
}

// Exceeded returns nil while the query is within budget, and an *Error
// wrapping ErrExceeded naming the first exhausted dimension otherwise.
func (t *Tracker) Exceeded() error {
	if limit := t.maxPages.Load(); limit > 0 {
		if used := t.PageReads(); used >= limit {
			return &Error{Dimension: DimPages, Used: used, Limit: limit}
		}
	}
	if limit := t.maxEst.Load(); limit > 0 {
		if used := t.est.Load(); used >= limit {
			return &Error{Dimension: DimEstimations, Used: used, Limit: limit}
		}
	}
	if limit := t.maxWall.Load(); limit > 0 {
		if used := int64(time.Since(t.start)); used >= limit {
			return &Error{Dimension: DimWall, Used: used, Limit: limit}
		}
	}
	return nil
}

type ctxKey struct{}

// budgetCtx layers budget enforcement over a parent context. Err reports the
// parent's error first (a caller cancellation wins over budget accounting),
// then budget exhaustion. Done fires on parent cancellation and on the wall
// budget's timer; the counter dimensions surface only through the Err polls
// the pipelines already perform at page/shard granularity — the same
// latency bound as cancellation itself.
type budgetCtx struct {
	inner   context.Context // parent, wrapped with the wall deadline if any
	parent  context.Context
	tracker *Tracker
}

// WithContext attaches tracker to parent. The returned cancel must be called
// when the query ends to release the wall-budget timer.
func WithContext(parent context.Context, tracker *Tracker) (context.Context, context.CancelFunc) {
	inner, cancel := parent, context.CancelFunc(func() {})
	if dl, ok := tracker.WallDeadline(); ok {
		inner, cancel = context.WithDeadline(parent, dl)
	}
	return &budgetCtx{inner: inner, parent: parent, tracker: tracker}, cancel
}

// From returns the tracker attached to ctx, or nil.
func From(ctx context.Context) *Tracker {
	t, _ := ctx.Value(ctxKey{}).(*Tracker)
	return t
}

func (c *budgetCtx) Deadline() (time.Time, bool) { return c.inner.Deadline() }
func (c *budgetCtx) Done() <-chan struct{}       { return c.inner.Done() }

func (c *budgetCtx) Err() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	if err := c.tracker.Exceeded(); err != nil {
		return err
	}
	return nil
}

func (c *budgetCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.tracker
	}
	return c.inner.Value(key)
}
