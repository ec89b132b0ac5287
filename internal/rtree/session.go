package rtree

import (
	"context"

	"skydiver/internal/geom"
	"skydiver/internal/pager"
	"skydiver/internal/retry"
)

// Reader is the read-only query surface shared by *Tree (queries through the
// tree's default pool) and *Session (queries through a private per-query
// pool). Algorithms that only read the index — BBS, SigGen-IB, the exact
// oracle, top-k dominating — accept a Reader so callers choose the I/O
// accounting scope.
type Reader interface {
	// Dims returns the dimensionality of indexed points.
	Dims() int
	// Len returns the number of indexed points.
	Len() int
	// Root returns the root page id, for external traversals.
	Root() pager.PageID
	// ReadNode fetches and decodes one node, charging the reader's pool.
	ReadNode(id pager.PageID) (*Node, error)
	// RangeCount counts indexed points inside r.
	RangeCount(r geom.Rect) (int, error)
	// DominanceCount returns |Γ(p)|.
	DominanceCount(p []float64) (int, error)
	// CommonDominanceCount returns |Γ(p) ∩ Γ(q)|.
	CommonDominanceCount(p, q []float64) (int, error)
	// RangeQuery invokes fn for every indexed point inside r.
	RangeQuery(r geom.Rect, fn func(rowID uint32, p []float64) bool) error
	// Stats returns the reader's accumulated I/O counters.
	Stats() pager.Stats
}

var (
	_ Reader = (*Tree)(nil)
	_ Reader = (*Session)(nil)
)

// Session is a per-query I/O session: a private LRU buffer pool over the
// tree's shared immutable page store. Each concurrent query checks out its
// own session, so cache simulation and I/O counters stay faithful to the
// paper's single-query methodology while queries never contend on cache
// state. A session weighs one pool (map + list); creating one per query is
// cheap next to any index traversal.
//
// A Session must not be shared between concurrently running queries — that
// would merge their counters again, defeating its purpose — but using one is
// race-free even if misused that way, since the underlying pool locks
// internally. Session counters are mirrored into the tree's AggregateStats.
//
// Sharing one session between the workers of a single query, however, is
// intended: SigGen-IB's parallel traversal issues concurrent ReadNode calls
// through one session so the whole query is charged to one pool. Total reads
// and faults+hits stay deterministic; only the hit/fault split can vary with
// worker interleaving, since which racing reader misses first is a matter of
// scheduling.
type Session struct {
	tree *Tree
	pool *pager.BufferPool
	ctx  context.Context // nil = background; set by Bind
}

// NewSession opens a cold per-query session whose pool holds the given
// fraction of the tree's pages — pass pager.DefaultCacheFraction for the
// paper's fresh 20% cache per measured run.
func (t *Tree) NewSession(cacheFraction float64) *Session {
	pool := pager.NewBufferPoolFraction(t.store, cacheFraction)
	pool.SetShared(&t.queryStats)
	return &Session{tree: t, pool: pool}
}

// view wraps the tree's current default pool in a Session so the traversal
// implementations are written once, against sessions.
func (t *Tree) view() *Session { return &Session{tree: t, pool: t.defaultPool()} }

// Tree returns the tree this session reads.
func (s *Session) Tree() *Tree { return s.tree }

// Dims returns the dimensionality of indexed points.
func (s *Session) Dims() int { return s.tree.dims }

// Len returns the number of indexed points.
func (s *Session) Len() int { return s.tree.size }

// Root returns the root page id.
func (s *Session) Root() pager.PageID { return s.tree.root }

// Bind returns a view of the session whose reads observe ctx: retry backoff
// sleeps in the underlying pool wake on ctx expiry, and a cancelled ctx
// aborts before a physical read is issued. The view shares the session's pool
// and counters; the receiver is unchanged, so one query can bind its ctx once
// and hand the bound view to all of its workers.
func (s *Session) Bind(ctx context.Context) *Session {
	return &Session{tree: s.tree, pool: s.pool, ctx: ctx}
}

// Context returns the context bound with Bind, or context.Background().
func (s *Session) Context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// ReadNode fetches and decodes the node on page id through the session's
// private pool, charging a fault on a miss. Reads go through the bound
// context, if any (see Bind).
func (s *Session) ReadNode(id pager.PageID) (*Node, error) {
	return readNodeCtx(s.Context(), s.tree, s.pool, id)
}

// Stats returns the session's accumulated I/O counters.
func (s *Session) Stats() pager.Stats { return s.pool.Stats() }

// ObserveReads installs a per-read observer on the session's pool (see
// pager.BufferPool.SetReadObserver): budget trackers use it to charge every
// logical page read as it happens. The callback must not call back into the
// session or its pool.
func (s *Session) ObserveReads(fn func(n int64)) { s.pool.SetReadObserver(fn) }

// ResetStats zeroes the session's counters without evicting cached pages.
func (s *Session) ResetStats() { s.pool.ResetStats() }

// SetRetryPolicy replaces the session pool's transient-fault retry policy.
func (s *Session) SetRetryPolicy(r retry.Policy) { s.pool.SetRetryPolicy(r) }
