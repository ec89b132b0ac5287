// Package pager provides the paged storage substrate used throughout the
// reproduction: fixed-size pages, two page-store backends behind one Store
// interface, an LRU buffer pool and an I/O cost model.
//
// The paper's experimental setup (Section 5.1) stores each dataset in an
// aggregate R*-tree with a 4 KiB page size, caches 20% of the tree's blocks,
// and reports "total time" as CPU time plus 8 ms per page fault. This
// package reproduces that accounting: every structure that wants its I/O
// charged (the R*-tree, the sequential data file scan) routes page accesses
// through a BufferPool, and experiments convert the resulting fault counts
// into time through CostModel.
//
// The counters are charged above the Store interface, so the two backends —
// the in-memory PageStore (the simulation the golden accounting tests pin)
// and the mmap-backed FileStore (real capacity for larger-than-memory
// indexes) — produce bit-identical accounting for the same access sequence.
package pager

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"skydiver/internal/retry"
)

// PageSize is the fixed page size in bytes (4 KiB, as in the paper).
const PageSize = 4096

// DefaultCacheFraction is the fraction of a file's pages held by its buffer
// pool, matching the paper's "cache with 20% of the R*-tree's blocks".
const DefaultCacheFraction = 0.20

// DefaultFaultTime is the simulated cost of a page fault (8 ms, Section 5.1).
const DefaultFaultTime = 8 * time.Millisecond

// PageID identifies a page within a single PageStore.
type PageID uint32

// InvalidPage is a sentinel PageID that never identifies a real page.
const InvalidPage = PageID(^uint32(0))

// Stats accumulates I/O counters for one buffer pool.
type Stats struct {
	// Reads is the total number of logical page accesses.
	Reads int64
	// Hits counts accesses served from the buffer pool.
	Hits int64
	// Faults counts accesses that had to go to "disk".
	Faults int64
	// Writes counts physical page writes.
	Writes int64
	// Retries counts re-reads issued after injected transient faults.
	Retries int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Hits += o.Hits
	s.Faults += o.Faults
	s.Writes += o.Writes
	s.Retries += o.Retries
}

// Sub returns the field-wise difference s − o. Pipelines use it to carve one
// phase's I/O out of a session's running counters; unlike the ad-hoc deltas
// it replaces, it carries every field, including Retries.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:   s.Reads - o.Reads,
		Hits:    s.Hits - o.Hits,
		Faults:  s.Faults - o.Faults,
		Writes:  s.Writes - o.Writes,
		Retries: s.Retries - o.Retries,
	}
}

// HitRatio returns the fraction of reads served by the pool (0 when idle).
func (s Stats) HitRatio() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// String formats the counters compactly for experiment logs.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d hits=%d faults=%d writes=%d hit%%=%.1f",
		s.Reads, s.Hits, s.Faults, s.Writes, 100*s.HitRatio())
}

// CostModel converts I/O counters into simulated elapsed time.
type CostModel struct {
	// FaultTime is charged per page fault.
	FaultTime time.Duration
}

// DefaultCostModel returns the paper's 8 ms/fault model.
func DefaultCostModel() CostModel { return CostModel{FaultTime: DefaultFaultTime} }

// IOTime returns the simulated I/O time for the given counters.
func (c CostModel) IOTime(s Stats) time.Duration {
	return time.Duration(s.Faults) * c.FaultTime
}

// PageStore is an append-only collection of fixed-size pages held entirely
// in memory, standing in for a disk file — nothing here touches a device;
// FileStore is the backend that does. It is safe for concurrent use. An
// optional FaultInjector makes physical reads fail according to a
// FaultPolicy, so storage-level robustness is testable without a real
// flaky disk.
type PageStore struct {
	hooks
	mu    sync.RWMutex
	pages [][]byte
}

// NewPageStore creates an empty store.
func NewPageStore() *PageStore { return &PageStore{} }

// NumPages returns the number of allocated pages.
func (ps *PageStore) NumPages() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.pages)
}

// Allocate appends a zeroed page and returns its id.
func (ps *PageStore) Allocate() PageID {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.pages = append(ps.pages, make([]byte, PageSize))
	return PageID(len(ps.pages) - 1)
}

// ReadPage returns the raw contents of page id. The returned slice aliases
// the store; callers must treat it as read-only. With a fault injector
// installed, the read may fail with an error wrapping ErrTransientFault or
// ErrPermanentFault.
func (ps *PageStore) ReadPage(id PageID) ([]byte, error) {
	ps.mu.RLock()
	if int(id) >= len(ps.pages) {
		n := len(ps.pages)
		ps.mu.RUnlock()
		return nil, fmt.Errorf("pager: read of unallocated page %d (have %d)", id, n)
	}
	raw := ps.pages[id]
	ps.mu.RUnlock()
	return ps.screen(id, raw)
}

// WritePage replaces the contents of page id. The buffer must be exactly
// PageSize bytes.
func (ps *PageStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pager: write of %d bytes, want %d", len(buf), PageSize)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if int(id) >= len(ps.pages) {
		return fmt.Errorf("pager: write of unallocated page %d (have %d)", id, len(ps.pages))
	}
	copy(ps.pages[id], buf)
	return nil
}

// BufferPool is an LRU cache of decoded page payloads in front of a Store
// (the simulated PageStore or the disk-backed FileStore — the accounting is
// identical either way). The pool caches arbitrary decoded values (e.g.
// R-tree nodes) so
// that a cache hit skips both the "disk" access and deserialization, just as
// a real database buffer manager holds frames that index structures pin.
//
// BufferPool is safe for concurrent use: all cache and counter state is
// guarded by an internal mutex. Concurrent queries should still prefer one
// pool (one I/O session) each — sharing a pool interleaves the cache
// simulation and merges the per-query counters, whereas a private pool keeps
// both faithful to the paper's single-query accounting.
type BufferPool struct {
	store    Store
	capacity int
	retry    retry.Policy

	mu      sync.Mutex
	stats   Stats
	shared  *AtomicStats  // optional cross-pool aggregate, may be nil
	onRead  func(n int64) // optional per-read observer, runs under mu
	entries map[PageID]*list.Element
	lru     *list.List // front = most recently used
}

type poolEntry struct {
	id      PageID
	decoded any
}

// NewBufferPool creates a pool over store holding at most capacity pages.
// A capacity below 1 is raised to 1.
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		retry:    DefaultRetryPolicy(),
		entries:  make(map[PageID]*list.Element, capacity),
		lru:      list.New(),
	}
}

// NewBufferPoolFraction creates a pool sized to the given fraction of the
// store's current page count (at least one page).
func NewBufferPoolFraction(store Store, fraction float64) *BufferPool {
	capacity := int(fraction * float64(store.NumPages()))
	return NewBufferPool(store, capacity)
}

// Capacity returns the maximum number of cached pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Len returns the number of currently cached pages.
func (bp *BufferPool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.Len()
}

// Stats returns a copy of the accumulated counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters without evicting cached pages.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// SetShared installs an atomic aggregate that mirrors every counter bump of
// this pool, letting an owner total I/O across many per-query pools without
// polling each one. Install before first use; nil removes the mirror.
func (bp *BufferPool) SetShared(agg *AtomicStats) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.shared = agg
}

// SetReadObserver installs a callback invoked with the size of every logical
// read (hits and faults alike) as it is counted. Per-query budget trackers
// hook their page accounting here. The callback runs with the pool's mutex
// held: it must be cheap and must never call back into the pool (an atomic
// add is the intended shape). nil removes the observer.
func (bp *BufferPool) SetReadObserver(fn func(n int64)) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.onRead = fn
}

// SetRetryPolicy replaces the pool's transient-fault retry policy
// (DefaultRetryPolicy until set).
func (bp *BufferPool) SetRetryPolicy(r retry.Policy) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.retry = r
}

// Get returns the decoded payload of page id, consulting the cache first.
// On a miss it reads the raw page from the store, invokes decode, caches the
// result and counts a fault. Injected transient read faults are retried with
// exponential backoff up to the pool's retry policy; permanent faults and
// exhausted retries surface as errors. Get never gives up early; use GetCtx
// when the caller can be cancelled.
func (bp *BufferPool) Get(id PageID, decode func(raw []byte) (any, error)) (any, error) {
	return bp.GetCtx(context.Background(), id, decode)
}

// GetCtx is Get with cancellation: the retry backoff sleeps wake on ctx
// expiry instead of sleeping through it, and a cancelled ctx aborts before a
// physical read is issued. Cache hits are always served regardless of ctx. If
// the store has a circuit breaker, every physical read attempt is screened by
// it first — an open breaker fails the read fast with an error wrapping
// retry.ErrCircuitOpen and aborts any remaining retries.
func (bp *BufferPool) GetCtx(ctx context.Context, id PageID, decode func(raw []byte) (any, error)) (any, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	before := bp.stats
	defer func() {
		if bp.shared != nil {
			bp.shared.Add(bp.stats.Sub(before))
		}
	}()
	bp.stats.Reads++
	if bp.onRead != nil {
		bp.onRead(1)
	}
	if el, ok := bp.entries[id]; ok {
		bp.stats.Hits++
		bp.lru.MoveToFront(el)
		return el.Value.(*poolEntry).decoded, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bp.stats.Faults++
	raw, err := bp.readPhysical(ctx, id)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return nil, err
		}
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	decoded, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("pager: decode page %d: %w", id, err)
	}
	bp.insert(id, decoded)
	return decoded, nil
}

// readPhysical performs the store read with breaker screening and ctx-aware
// retry backoff. bp.mu must be held (the sleeps deliberately serialize the
// pool, preserving the per-query I/O session discipline).
//
// The breaker sees one classification: a transient fault counts as a fault
// and a success as healthy, while a permanent fault (a dead page, not
// evidence that the whole device is sick, and never retried) or any other
// error is not recorded.
func (bp *BufferPool) readPhysical(ctx context.Context, id PageID) ([]byte, error) {
	br := bp.store.Breaker()
	read := func() ([]byte, error) {
		if br != nil {
			if err := br.Allow(); err != nil {
				return nil, err
			}
		}
		raw, err := bp.store.ReadPage(id)
		if br != nil {
			if transient := errors.Is(err, ErrTransientFault); transient || err == nil {
				br.Record(transient)
			}
		}
		return raw, err
	}
	raw, err := read()
	for attempt := 0; err != nil && errors.Is(err, ErrTransientFault) && attempt < bp.retry.MaxRetries; attempt++ {
		bp.stats.Retries++
		if serr := bp.retry.Wait(ctx, attempt); serr != nil {
			return nil, serr
		}
		raw, err = read()
	}
	return raw, err
}

// Put installs a decoded payload for page id (e.g. right after building and
// writing a node) without touching the fault counters.
func (bp *BufferPool) Put(id PageID, decoded any) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if el, ok := bp.entries[id]; ok {
		el.Value.(*poolEntry).decoded = decoded
		bp.lru.MoveToFront(el)
		return
	}
	bp.insert(id, decoded)
}

// Clear drops all cached pages, keeping the statistics.
func (bp *BufferPool) Clear() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.lru.Init()
	bp.entries = make(map[PageID]*list.Element, bp.capacity)
}

func (bp *BufferPool) insert(id PageID, decoded any) {
	if bp.lru.Len() >= bp.capacity {
		oldest := bp.lru.Back()
		if oldest != nil {
			bp.lru.Remove(oldest)
			delete(bp.entries, oldest.Value.(*poolEntry).id)
		}
	}
	bp.entries[id] = bp.lru.PushFront(&poolEntry{id: id, decoded: decoded})
}

// SequentialCounter models the I/O cost of sequentially scanning a flat file
// of fixed-size records without any caching benefit: every distinct page
// touched is one fault. The index-free signature generator uses it to charge
// the single data pass.
type SequentialCounter struct {
	recordsPerPage int
	lastPage       int64
	stats          Stats
}

// NewSequentialCounter creates a counter for records of recordSize bytes.
func NewSequentialCounter(recordSize int) *SequentialCounter {
	rpp := PageSize / recordSize
	if rpp < 1 {
		rpp = 1
	}
	return &SequentialCounter{recordsPerPage: rpp, lastPage: -1}
}

// NewScanCounter creates the counter of a sequential scan over a data file
// of dims-dimensional rows, each stored as dims float64 coordinates and a
// 4-byte row id.
func NewScanCounter(dims int) *SequentialCounter { return NewSequentialCounter(8*dims + 4) }

// RecordsPerPage returns how many records share one page.
func (sc *SequentialCounter) RecordsPerPage() int { return sc.recordsPerPage }

// Touch registers an access to record i, counting a fault when i lives on a
// page different from the previously touched one.
func (sc *SequentialCounter) Touch(i int) {
	sc.stats.Reads++
	page := int64(i / sc.recordsPerPage)
	if page != sc.lastPage {
		sc.stats.Faults++
		sc.lastPage = page
	} else {
		sc.stats.Hits++
	}
}

// Stats returns a copy of the accumulated counters.
func (sc *SequentialCounter) Stats() Stats { return sc.stats }

// PagesForRecords returns how many pages a file of n records occupies.
func (sc *SequentialCounter) PagesForRecords(n int) int {
	return (n + sc.recordsPerPage - 1) / sc.recordsPerPage
}
