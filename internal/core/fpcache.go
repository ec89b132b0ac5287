package core

import (
	"container/list"
	"context"
	"sync"
)

// FingerprintKey identifies one Phase-1 build. Fingerprints are a pure
// function of the dataset state plus these parameters: the dataset epoch
// (mutable datasets bump it per mutation batch, so stale signatures can
// never be served against a changed skyline), the generator mode (IF and IB
// produce different row-id assignments, hence different signatures), the
// signature size t, and the hash-family seed. Worker counts are deliberately
// absent — the parallel generators are pinned bit-identical to their
// sequential forms, so they share cache lines with them.
type FingerprintKey struct {
	Epoch uint64
	Mode  FingerprintMode
	T     int
	Seed  int64
}

// fpEntry is one cache slot. done is closed once the build finished and fp /
// err are published; waiters block on it rather than re-running SigGen.
type fpEntry struct {
	done chan struct{}
	fp   *Fingerprint
	err  error
}

// fpItem is what the LRU list holds: the key travels with the entry so
// eviction can unlink the map.
type fpItem struct {
	key   FingerprintKey
	entry *fpEntry
}

// FingerprintCacheStats are the cache's monotonic counters plus its current
// size. Hits counts queries served without a SigGen pass — both lookups of a
// completed entry and waiters that latched onto an in-flight build.
type FingerprintCacheStats struct {
	// Builds is the number of SigGen passes actually executed.
	Builds int64
	// Hits is the number of Get calls that returned without building.
	Hits int64
	// Misses is the number of Get calls that had to build.
	Misses int64
	// Entries is the number of fingerprints currently resident.
	Entries int
	// SelectionHits is the number of MinHash or LSH selections served from
	// the pick order memoized with a resident fingerprint.
	SelectionHits int64
	// EstimatesReused is the number of distances selections read from the
	// rows kept with a resident fingerprint's pick orders instead of
	// estimating them (Stats.EstimatesReused, summed).
	EstimatesReused int64
}

// defaultFingerprintCacheCap bounds a cache constructed with a non-positive
// capacity. Distinct (mode, t, seed) combinations per dataset are few in any
// real deployment; 16 is generous.
const defaultFingerprintCacheCap = 16

// FingerprintCache memoizes Phase-1 fingerprints per dataset with
// singleflight semantics: N concurrent queries for the same key run exactly
// one SigGen pass, the rest block until it publishes. Entries carry the
// dataset epoch in their key: a mutation bumps the epoch, so queries after
// it simply miss the old entries, which age out of the LRU (or are patched
// and re-installed at the new epoch by the incremental maintenance in
// maintain.go, or dropped via Drop). Capacity is a bounded LRU; failed
// builds are not cached.
//
// Cached *Fingerprint values are shared between queries, which only read
// them. A write, which the dataset runs only while no query does, patches
// them in place (migrateFingerprints).
type FingerprintCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[FingerprintKey]*list.Element
	stats FingerprintCacheStats

	// buildHook, when non-nil, runs at the start of every build, outside the
	// lock. Tests use it to hold a build open while concurrent waiters pile
	// up; it is never set in production code.
	buildHook func(FingerprintKey)
}

// NewFingerprintCache creates a cache holding at most capacity fingerprints
// (non-positive capacity selects the default).
func NewFingerprintCache(capacity int) *FingerprintCache {
	if capacity <= 0 {
		capacity = defaultFingerprintCacheCap
	}
	return &FingerprintCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[FingerprintKey]*list.Element),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *FingerprintCache) Stats() FingerprintCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.items)
	return s
}

// selectionHit counts a selection served from a memoized pick order.
func (c *FingerprintCache) selectionHit() {
	c.mu.Lock()
	c.stats.SelectionHits++
	c.mu.Unlock()
}

// estimatesReused counts n distances a selection read from kept rows.
func (c *FingerprintCache) estimatesReused(n int) {
	c.mu.Lock()
	c.stats.EstimatesReused += int64(n)
	c.mu.Unlock()
}

// removeLocked unlinks el from the list and, when it is still the key's
// current element, from the map. c.mu must be held.
func (c *FingerprintCache) removeLocked(el *list.Element) {
	it := el.Value.(*fpItem)
	if cur, ok := c.items[it.key]; ok && cur == el {
		delete(c.items, it.key)
	}
	c.ll.Remove(el)
}

// Get returns the fingerprint for key, building it with build on a miss. The
// second return reports whether the result came without running build in
// this call — a completed cache entry or another query's in-flight build.
//
// Waiting is cancellable: a waiter whose ctx expires returns its ctx error
// without disturbing the build. A failed build is returned to its caller and
// its waiters retry — the first to re-enter becomes the new builder with its
// own context, so one cancelled query can never poison the key for others.
func (c *FingerprintCache) Get(ctx context.Context, key FingerprintKey, build func() (*Fingerprint, error)) (*Fingerprint, bool, error) {
	for {
		// Poll before (re-)entering: contexts that surface budget exhaustion
		// only through Err (not Done) still stop a would-be builder here.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			e := el.Value.(*fpItem).entry
			select {
			case <-e.done:
				if e.err == nil {
					c.ll.MoveToFront(el)
					c.stats.Hits++
					c.mu.Unlock()
					return e.fp, true, nil
				}
				// A completed failure still resident (its builder removes it,
				// but we may have raced ahead of that): drop and rebuild.
				c.removeLocked(el)
				c.mu.Unlock()
				continue
			default:
				// In-flight: wait outside the lock.
				c.mu.Unlock()
				select {
				case <-e.done:
					if e.err == nil {
						c.mu.Lock()
						c.stats.Hits++
						c.mu.Unlock()
						return e.fp, true, nil
					}
					continue // possibly become the new builder
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
			}
		}
		// Miss: become the builder.
		e := &fpEntry{done: make(chan struct{})}
		el := c.ll.PushFront(&fpItem{key: key, entry: e})
		c.items[key] = el
		c.stats.Misses++
		c.stats.Builds++
		for c.ll.Len() > c.cap {
			c.removeLocked(c.ll.Back())
		}
		hook := c.buildHook
		c.mu.Unlock()

		if hook != nil {
			hook(key)
		}
		fp, err := build()
		c.mu.Lock()
		e.fp, e.err = fp, err
		if err != nil {
			// Never cache failures. The entry may already have been evicted
			// and replaced; only remove it if it is still the key's current
			// element.
			if cur, ok := c.items[key]; ok && cur == el {
				c.removeLocked(el)
			}
		}
		c.mu.Unlock()
		close(e.done)
		return fp, false, err
	}
}

// Purge drops every cache entry, completed or in flight, and returns the
// number dropped. An evicted in-flight build still finishes and publishes to
// its waiters; it is just not re-admitted (the same rule the LRU eviction
// already applies). Dataset.Close uses Purge to release signature memory.
func (c *FingerprintCache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
	}
	return n
}

// CompletedEntries returns the keys of every successfully completed resident
// entry, most recently used first. The incremental maintenance path uses it
// to find the fingerprints worth patching forward to a new epoch.
func (c *FingerprintCache) CompletedEntries() []FingerprintKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []FingerprintKey
	for el := c.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*fpItem)
		select {
		case <-it.entry.done:
		default:
			continue
		}
		if it.entry.err == nil {
			keys = append(keys, it.key)
		}
	}
	return keys
}

// Peek returns the completed fingerprint for key without counting a hit or
// touching the LRU order. It is the read half of the patch-and-reinstall
// cycle in maintain.go.
func (c *FingerprintCache) Peek(key FingerprintKey) (*Fingerprint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*fpItem).entry
	select {
	case <-e.done:
	default:
		return nil, false
	}
	if e.err != nil {
		return nil, false
	}
	return e.fp, true
}

// Install inserts a completed fingerprint under key, replacing any resident
// entry for it. Maintenance uses it to publish a patched fingerprint at the
// new epoch without a rebuild; the entry obeys the same LRU bounds as built
// ones.
func (c *FingerprintCache) Install(key FingerprintKey, fp *Fingerprint) {
	e := &fpEntry{done: make(chan struct{}), fp: fp}
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.items[key] = c.ll.PushFront(&fpItem{key: key, entry: e})
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
	}
}

// Drop removes the entry for key (completed or in flight; an in-flight build
// still publishes to its waiters, it is just not re-admitted) and reports
// whether one was resident.
func (c *FingerprintCache) Drop(key FingerprintKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.removeLocked(el)
	}
	return ok
}

// substituteRank orders resident fingerprints by how well they stand in for
// want: the exact key, then same mode and size (a different seed estimates
// the same distances), then same mode with more slots (strictly more
// information), then same mode with fewer, then the other mode (different
// row-id universe — estimates remain unbiased for full dominance sets, the
// weakest but still meaningful stand-in).
func substituteRank(want, have FingerprintKey) int {
	switch {
	case have == want:
		return 0
	case have.Mode == want.Mode && have.T == want.T:
		return 1
	case have.Mode == want.Mode && have.T > want.T:
		return 2
	case have.Mode == want.Mode:
		return 3
	case have.T >= want.T:
		return 4
	default:
		return 5
	}
}

// Substitute returns the best resident completed fingerprint to stand in for
// key, without building anything: the graceful-degradation ladder calls it
// when Phase 1 cannot run (storage breaker open, page budget spent) to serve
// an approximate answer from memory instead of failing. Preference follows
// substituteRank; ties break toward the most recently used entry. The bool
// reports whether anything usable was resident. Only entries from the
// requested epoch qualify: a stale-epoch fingerprint's columns belong to a
// different skyline, so serving it would not be approximate, it would be
// wrong.
func (c *FingerprintCache) Substitute(key FingerprintKey) (*Fingerprint, FingerprintKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bestRank := int(^uint(0) >> 1)
	var bestFP *Fingerprint
	var bestKey FingerprintKey
	for el := c.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*fpItem)
		select {
		case <-it.entry.done:
		default:
			continue // still building
		}
		if it.entry.err != nil {
			continue
		}
		if it.key.Epoch != key.Epoch {
			continue
		}
		if r := substituteRank(key, it.key); r < bestRank {
			bestRank, bestFP, bestKey = r, it.entry.fp, it.key
			if r == 0 {
				break
			}
		}
	}
	if bestFP == nil {
		return nil, FingerprintKey{}, false
	}
	c.stats.Hits++
	return bestFP, bestKey, true
}
