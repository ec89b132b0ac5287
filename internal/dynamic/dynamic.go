// Package dynamic provides continuous skyline diversification over a
// sliding window of streaming points.
//
// The paper adopts its dispersion view of diversity from Drosou & Pitoura's
// work on dynamic diversification of continuous data (cited as [13]) and
// lists "scalable skyline diversification over massive data" as future
// work. This package supplies the continuous setting: a Monitor ingests an
// unbounded stream, retains the most recent W points, and answers
// "k most diverse skyline points of the current window" queries using the
// same index-free SkyDiver pipeline as the static case — the window is
// transient, so no index could be maintained anyway, which is precisely the
// regime SigGen-IF was designed for.
//
// Results are recomputed lazily: queries between stream changes are served
// from cache. The recomputation itself is incremental: the monitor keeps the
// window's skyline, the MinHash signature matrix, and the domination scores
// as live state and replays only the inserts/evictions that happened since
// the previous query. It owns no Phase-1 code: the window is a row source of
// core's write maintenance (core.Window), so each replayed arrival or
// eviction runs the skyline update and fingerprint patch a Dataset's Insert
// and Delete run, with the window scanned where a Dataset queries its
// R*-tree, and the wholesale rebuild is SFS plus core's range fold, hashed
// by sequence number. The maintained state is bit-identical to a
// from-scratch recomputation at every step (min-folds are
// order-independent), so incremental and wholesale queries return the same
// answers; when the window has fully turned over between queries the
// monitor falls back to the wholesale rebuild, which is then the cheaper
// path.
//
// A Monitor is safe for concurrent use: Add and the query methods may be
// called from any number of goroutines. Queries serialize with ingestion on
// an internal mutex (a refresh blocks concurrent Adds until it completes),
// which is also the torn-state guarantee: no query ever observes a window,
// skyline, or signature matrix mixing two stream positions.
package dynamic

import (
	"context"
	"fmt"
	"sync"
	"time"

	"skydiver/internal/core"
	"skydiver/internal/dispersion"
	"skydiver/internal/minhash"
)

// Item is one stream element inside the window.
type Item struct {
	// Seq is the element's arrival number (monotonically increasing across
	// the whole stream, never reused).
	Seq uint64
	// Point holds the coordinates (canonical min-preferred orientation).
	Point []float64
}

// Monitor maintains a sliding window over a point stream and diversifies
// its skyline on demand. See the package comment for the concurrency and
// incremental-maintenance guarantees.
type Monitor struct {
	dims     int
	capacity int
	k        int

	// mu guards every field below. Add and the query paths both take it, so
	// ingestion and (re)computation are mutually exclusive.
	mu sync.Mutex

	next  uint64
	count int
	// buf is the window ring: the item with sequence number s lives in slot
	// s mod capacity while s is in the window. Overwriting a slot on
	// ingestion releases the evicted item's point storage immediately — the
	// ring replaces the old `window = window[1:]` slide, which stranded up
	// to a full window of dead points in the slice's backing array.
	buf []Item

	// Incremental maintenance state. When live is true, sky / matrix /
	// domScore describe exactly the window [winLo, winHi); pendingEvict
	// holds, oldest first, the items that left the ring but have not been
	// replayed yet (their sequence numbers are [winLo, next−count)). The op
	// log is bounded: when a full window of points arrives between queries,
	// the state is invalidated (a wholesale rebuild is cheaper than
	// replaying a complete turnover) and pendingEvict is released.
	live         bool
	winLo, winHi uint64
	pendingEvict []Item
	sky          []int // skyline of [winLo, winHi): ascending sequence numbers
	matrix       *minhash.Matrix
	domScore     []float64

	fam *minhash.Family

	// wholesaleOnly forces every refresh down the from-scratch rebuild path.
	// It exists for the equivalence property tests and the incremental-vs-
	// wholesale benchmark; production monitors never set it.
	wholesaleOnly bool

	// cache of the last successfully computed answer. Errors are never
	// cached: a failed recomputation leaves the cache unpopulated, so the
	// next query retries from scratch instead of replaying the failure.
	cacheSeq   uint64 // next at the time of the cached computation
	cachedSky  []Item
	cachedPick []Item
	// RefreshCPU records the cost of the last recomputation. It is written
	// under the monitor's lock; read it after a query returns, not while
	// other goroutines are querying.
	RefreshCPU time.Duration
}

// NewMonitor creates a monitor over dims-dimensional points keeping the
// most recent capacity points and answering k-diversification queries with
// signatureSize-slot MinHash sketches.
func NewMonitor(dims, capacity, k, signatureSize int, seed int64) (*Monitor, error) {
	if dims < 1 {
		return nil, fmt.Errorf("dynamic: non-positive dimensionality %d", dims)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("dynamic: non-positive capacity %d", capacity)
	}
	if k < 1 || k > capacity {
		return nil, fmt.Errorf("dynamic: k %d out of range [1, %d]", k, capacity)
	}
	if signatureSize <= 0 {
		signatureSize = core.DefaultSignatureSize
	}
	fam, err := minhash.NewFamily(signatureSize, seed)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		dims: dims, capacity: capacity, k: k,
		buf: make([]Item, capacity),
		fam: fam,
	}, nil
}

// Add ingests a point, evicting the oldest element when the window is full.
// It returns the element's sequence number. Add never recomputes anything:
// mutations are queued and replayed incrementally by the next query.
func (m *Monitor) Add(p []float64) (uint64, error) {
	if len(p) != m.dims {
		return 0, fmt.Errorf("dynamic: point has %d dims, monitor expects %d", len(p), m.dims)
	}
	cp := make([]float64, m.dims)
	copy(cp, p)
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.next
	slot := seq % uint64(m.capacity)
	if m.count == m.capacity {
		if m.live {
			// Keep the evicted item until the incremental replay consumes it.
			m.pendingEvict = append(m.pendingEvict, m.buf[slot])
		}
	} else {
		m.count++
	}
	m.buf[slot] = Item{Seq: seq, Point: cp}
	m.next++
	if m.live && m.next-m.winHi >= uint64(m.capacity) {
		// Full window turnover since the last query: replaying the op log
		// would cost more than rebuilding, and pendingEvict would otherwise
		// retain a whole window of dead points.
		m.invalidate()
	}
	return seq, nil
}

// Len returns the current window size.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Seen returns the total number of points ever ingested.
func (m *Monitor) Seen() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// Skyline returns the skyline of the current window, oldest first.
func (m *Monitor) Skyline() ([]Item, error) {
	return m.SkylineCtx(context.Background())
}

// SkylineCtx is Skyline with cancellation. A cancelled recomputation leaves
// the cache unpopulated (the next query recomputes) and returns the
// context's error.
func (m *Monitor) SkylineCtx(ctx context.Context) ([]Item, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refresh(ctx); err != nil {
		return nil, err
	}
	out := make([]Item, len(m.cachedSky))
	copy(out, m.cachedSky)
	return out, nil
}

// Diverse returns the k most diverse skyline points of the current window
// (fewer when the skyline is smaller than k), in selection order.
func (m *Monitor) Diverse() ([]Item, error) {
	return m.DiverseCtx(context.Background())
}

// DiverseCtx is Diverse with cancellation; see SkylineCtx.
func (m *Monitor) DiverseCtx(ctx context.Context) ([]Item, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refresh(ctx); err != nil {
		return nil, err
	}
	out := make([]Item, len(m.cachedPick))
	copy(out, m.cachedPick)
	return out, nil
}

// itemAt returns the item with the given sequence number: from the ring when
// it is still resident, from the pending-eviction log otherwise. seq must be
// in [winLo, next).
func (m *Monitor) itemAt(seq uint64) Item {
	if seq >= m.next-uint64(m.count) {
		return m.buf[seq%uint64(m.capacity)]
	}
	return m.pendingEvict[seq-m.pendingEvict[0].Seq]
}

// invalidate drops the incremental state (and the retained evicted items);
// the next refresh rebuilds wholesale.
func (m *Monitor) invalidate() {
	m.live = false
	m.pendingEvict = nil
	m.sky = nil
	m.matrix = nil
	m.domScore = nil
}

// refresh brings the cached skyline and selection up to date when the stream
// has advanced since the last computation. Maintenance is incremental when
// live state exists (replaying the queued inserts/evictions), wholesale
// otherwise. No error of any kind is cached — cancellations and failures
// alike leave the cache unpopulated, so the next query recomputes cleanly
// instead of inheriting a dead query's outcome; a failure mid-replay also
// drops the incremental state, so no query ever runs on half-patched
// signatures.
func (m *Monitor) refresh(ctx context.Context) error {
	// A dead context fails even on a warm cache — standard context
	// discipline — but leaves the cache itself untouched for live queries.
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.cacheSeq == m.next && m.cachedSky != nil {
		return nil
	}
	m.cacheSeq = m.next
	m.cachedSky, m.cachedPick = nil, nil
	if m.count == 0 {
		m.cachedSky = []Item{}
		m.cachedPick = []Item{}
		return nil
	}
	start := time.Now()
	defer func() { m.RefreshCPU = time.Since(start) }()

	if m.live && !m.wholesaleOnly {
		if err := m.advance(ctx); err != nil {
			return err
		}
	} else {
		if err := m.rebuild(ctx); err != nil {
			return err
		}
	}
	sky := make([]Item, len(m.sky))
	for i, seq := range m.sky {
		sky[i] = m.itemAt(uint64(seq))
	}
	k := m.k
	if k > len(m.sky) {
		k = len(m.sky)
	}
	dist := func(i, j int) float64 { return m.matrix.EstimateJd(i, j) }
	selected, err := dispersion.SelectDiverseSetCtx(ctx, len(m.sky), k, dist, m.domScore)
	if err != nil {
		// Selection is read-only: the maintained state stays valid, only the
		// answer cache remains unpopulated.
		return err
	}
	pick := make([]Item, len(selected))
	for i, s := range selected {
		pick[i] = sky[s]
	}
	m.cachedSky, m.cachedPick = sky, pick
	return nil
}

// window returns the window [lo, hi) as core's row source: row ids are
// sequence numbers, and a row's point comes from the ring while it is
// resident, from the pending-eviction log otherwise.
func (m *Monitor) window(lo, hi uint64) *core.Window {
	return &core.Window{Lo: int(lo), Hi: int(hi), Point: func(row int) []float64 {
		return m.itemAt(uint64(row)).Point
	}}
}

// rebuild recomputes the maintained state from scratch over the current ring
// contents: SFS for the skyline, then core's range fold over the window,
// hashed by sequence number — the wholesale path, used on first query,
// after a full window turnover, and as the recovery path after a failed
// incremental replay.
func (m *Monitor) rebuild(ctx context.Context) error {
	base := m.next - uint64(m.count)
	sky, fp, err := m.window(base, m.next).Rebuild(ctx, m.fam)
	if err != nil {
		return err
	}
	m.sky, m.matrix, m.domScore = sky, fp.Matrix, fp.DomScore
	m.winLo, m.winHi = base, m.next
	m.pendingEvict = nil
	m.live = !m.wholesaleOnly
	return nil
}

// advance replays the evictions and inserts queued since the maintained
// state's window, in arrival order, through core's write maintenance, so
// that sky / matrix / domScore describe the current window bit-identically
// to a wholesale rebuild. The context is polled before each replayed
// arrival. Any error (cancellation included) invalidates the state: the next
// refresh rebuilds wholesale rather than continuing from a half-applied
// mutation.
func (m *Monitor) advance(ctx context.Context) error {
	fp := &core.Fingerprint{Matrix: m.matrix, DomScore: m.domScore}
	sky := m.sky
	for m.winHi < m.next {
		if err := ctx.Err(); err != nil {
			m.invalidate()
			return err
		}
		var err error
		if m.winHi-m.winLo == uint64(m.capacity) {
			ev := m.itemAt(m.winLo)
			m.winLo++
			sky, err = m.window(m.winLo, m.winHi).Evict(m.fam, sky, fp, ev.Point)
		}
		if err == nil {
			m.winHi++
			sky, err = m.window(m.winLo, m.winHi).Insert(m.fam, sky, fp)
		}
		if err != nil {
			m.invalidate()
			return err
		}
	}
	m.sky, m.matrix, m.domScore = sky, fp.Matrix, fp.DomScore
	// Every queued eviction has been replayed; release the retained items.
	m.pendingEvict = nil
	return nil
}
