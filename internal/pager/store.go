package pager

import (
	"sync/atomic"

	"skydiver/internal/retry"
)

// Store is the page-granular storage contract shared by the simulated
// in-memory PageStore and the disk-backed FileStore. Everything above the
// pager — buffer pools, the R*-tree, persistence — speaks this interface, so
// the physical substrate can change without touching the I/O accounting: the
// BufferPool charges reads/hits/faults identically no matter which Store
// backs it, keeping the simulated twin's golden counters authoritative.
//
// The fault-injector and breaker hooks live on the store (not the pool)
// because they model the storage device: every pool over the same store sees
// the same failure surface, exactly as concurrent queries share one disk.
type Store interface {
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Allocate appends a zeroed page and returns its id.
	Allocate() PageID
	// ReadPage returns the raw contents of page id. The returned slice
	// aliases store-owned memory and is only valid until the next store
	// mutation; callers must treat it as read-only and must not retain it.
	ReadPage(id PageID) ([]byte, error)
	// WritePage replaces the contents of page id with buf, which must be
	// exactly PageSize bytes.
	WritePage(id PageID, buf []byte) error
	// SetFaultInjector installs (nil removes) a fault injector on the
	// physical read path.
	SetFaultInjector(fi *FaultInjector)
	// FaultInjector returns the installed injector, or nil.
	FaultInjector() *FaultInjector
	// SetBreaker installs (nil removes) a storage circuit breaker consulted
	// before every physical read.
	SetBreaker(b *retry.Breaker)
	// Breaker returns the installed circuit breaker, or nil.
	Breaker() *retry.Breaker
}

var _ Store = (*PageStore)(nil)
var _ Store = (*FileStore)(nil)

// hooks holds the fault injector and circuit breaker of one store's physical
// read path; both stores embed it. The pointers are atomic, so a read
// consults them without the store's lock.
type hooks struct {
	faults  atomic.Pointer[FaultInjector]
	breaker atomic.Pointer[retry.Breaker]
}

func (h *hooks) SetFaultInjector(fi *FaultInjector) { h.faults.Store(fi) }
func (h *hooks) FaultInjector() *FaultInjector      { return h.faults.Load() }
func (h *hooks) SetBreaker(b *retry.Breaker)        { h.breaker.Store(b) }
func (h *hooks) Breaker() *retry.Breaker            { return h.breaker.Load() }

// screen returns raw, the contents of page id, unless the installed fault
// injector fails the read.
func (h *hooks) screen(id PageID, raw []byte) ([]byte, error) {
	if fi := h.faults.Load(); fi != nil {
		if err := fi.check(id); err != nil {
			return nil, err
		}
	}
	return raw, nil
}
