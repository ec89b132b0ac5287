// mutate.go is the public mutation surface: InsertBatch and DeleteBatch
// maintain the skyline, the aggregate R*-tree and every resident
// fingerprint incrementally (internal/core's maintenance pass) under the
// dataset's query/mutation lock, and stamp the dataset with a new epoch so
// that no stale signature can ever be served against the changed skyline.
// Insert and Delete are batches of one.
package skydiver

import (
	"context"
	"errors"
	"fmt"

	"skydiver/internal/core"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// ErrNoSuchPoint is returned by Delete (and wrapped by the serving layer as
// a 404) when the addressed row does not exist or was already deleted.
var ErrNoSuchPoint = errors.New("skydiver: no such point")

// MutationStats summarizes what the mutation surface has done so far.
type MutationStats struct {
	// Inserts and Deletes count applied rows (failed attempts are not
	// counted, though they still bump the epoch to invalidate caches).
	Inserts uint64
	Deletes uint64
	// Epoch is the current dataset epoch: the number of mutation attempts,
	// successful or not, since the dataset was created. Every fingerprint
	// cache entry is keyed on it.
	Epoch uint64
	// Live is the number of live (not tombstoned) points.
	Live int
}

// Epoch returns the dataset's current mutation epoch. It starts at zero and
// increases with every Insert/Delete attempt; fingerprints are only ever
// served for the epoch they were built (or patched) against.
func (d *Dataset) Epoch() uint64 {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return d.epoch
}

// MutationStats returns the mutation counters. Safe to call concurrently
// with queries and mutations.
func (d *Dataset) MutationStats() MutationStats {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	return MutationStats{
		Inserts: d.inserts,
		Deletes: d.deletes,
		Epoch:   d.epoch,
		Live:    d.canon.LiveLen(),
	}
}

// Insert adds a point (given in the dataset's original orientation) and
// returns its row index. It is InsertBatch of one point: the skyline, the
// R*-tree and resident index-free fingerprints are maintained
// incrementally. A point dominated by the current skyline only touches the
// signature columns of its dominators, and a point that joins the skyline
// gets a fresh column while the members it dominates are demoted — no
// wholesale recomputation, no cold cache.
//
// Insert blocks until in-flight queries drain (and vice versa), so a query
// never observes a half-applied mutation. On error the dataset remains
// consistent: the row, if it became visible at all, is tombstoned, caches
// are dropped, and the next query recomputes what it needs.
func (d *Dataset) Insert(p []float64) (int, error) {
	rows, err := d.InsertBatch([][]float64{p})
	if err != nil {
		return 0, err
	}
	return rows[0], nil
}

// Delete tombstones the row with the given index. It is DeleteBatch of one
// row: the skyline, the R*-tree and resident fingerprints are maintained
// incrementally. Deleting a non-skyline point only adjusts the signature
// columns of its dominators, while deleting a skyline point promotes the
// newly exposed points found by a bounded dominance range query on the
// tree. Row indexes of the remaining points are unchanged. Deleting a
// missing or already-deleted row returns ErrNoSuchPoint.
func (d *Dataset) Delete(index int) error {
	return d.DeleteBatch([]int{index})
}

// InsertBatch adds points (in the dataset's original orientation) in order
// and returns their row indexes. The whole batch runs under one acquisition
// of the write lock, bumps the epoch once, and migrates every resident
// fingerprint once — the per-point patches are composed into a single
// cache pass — so N batched inserts cost one lock handoff and one cache
// migration instead of N of each, while the resulting dataset, skyline and
// fingerprints are identical to N sequential Inserts.
//
// All points are validated before anything is applied: a dimension mismatch
// returns ErrInvalidOptions with no mutation and no epoch bump. An empty
// batch is a no-op. On a storage failure mid-batch the successfully applied
// prefix stays applied (the dataset remains consistent, row indexes stable)
// and caches are dropped so the next query recomputes; the error reports
// the failing point.
func (d *Dataset) InsertBatch(points [][]float64) ([]int, error) {
	dims := d.canon.Dims()
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("%w: point %d has %d dimensions, dataset has %d",
				ErrInvalidOptions, i, len(p), dims)
		}
	}
	if len(points) == 0 {
		return []int{}, nil
	}
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if err := d.checkClosed(); err != nil {
		return nil, err
	}
	tr, sky, err := d.mutationState()
	if err != nil {
		return nil, err
	}
	canonPts := make([][]float64, len(points))
	for i, p := range points {
		canonPts[i] = d.reorient(p)
	}
	newSky, rows, err := core.ApplyInsertBatch(d.canon, tr, sky, d.fpCache, d.epoch, d.epoch+1, canonPts)
	d.epoch++
	if err != nil {
		d.setSky(nil)
		return nil, err
	}
	d.inserts += uint64(len(rows))
	d.setSky(newSky)
	return rows, nil
}

// DeleteBatch tombstones the rows with the given indexes under one
// write-lock acquisition, one epoch bump and one composed fingerprint
// migration for the whole batch, with results identical to sequential
// Deletes. The indexes are validated before anything is applied: a
// missing, already-deleted or duplicated index returns ErrNoSuchPoint with
// no mutation and no epoch bump. An empty batch is a no-op. On a storage
// failure mid-batch the applied prefix stays tombstoned and caches are
// dropped.
func (d *Dataset) DeleteBatch(indexes []int) error {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if err := d.checkClosed(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(indexes))
	for _, idx := range indexes {
		if idx < 0 || idx >= d.canon.Len() || d.canon.Deleted(idx) || seen[idx] {
			return fmt.Errorf("%w: row %d", ErrNoSuchPoint, idx)
		}
		seen[idx] = true
	}
	if len(indexes) == 0 {
		return nil
	}
	tr, sky, err := d.mutationState()
	if err != nil {
		return err
	}
	newSky, err := core.ApplyDeleteBatch(d.canon, tr, sky, d.fpCache, d.epoch, d.epoch+1, indexes)
	d.epoch++
	if err != nil {
		d.setSky(nil)
		return err
	}
	d.deletes += uint64(len(indexes))
	d.setSky(newSky)
	return nil
}

// mutationState readies the structures a mutation patches: the index and
// the current skyline (built now if no query has needed them yet). Callers
// hold qmu's write side.
func (d *Dataset) mutationState() (*rtree.Tree, []int, error) {
	tr, err := d.ensureIndex()
	if err != nil {
		return nil, nil, err
	}
	sky, err := d.skylineWith(context.Background(), tr.NewSession(pager.DefaultCacheFraction))
	if err != nil {
		return nil, nil, err
	}
	return tr, sky, nil
}

// setSky replaces the cached skyline under the dataset mutex (nil forces
// the next query to recompute).
func (d *Dataset) setSky(sky []int) {
	d.mu.Lock()
	d.sky = sky
	d.mu.Unlock()
}
