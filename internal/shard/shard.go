// Package shard partitions a dataset into disjoint row-id shards for the
// partition-parallel skyline (core.BuildShardPlan): each shard computes its
// local skyline independently, in its own rtree.Session, and
// core.MergeShardSkylines recombines them. The package knows nothing about
// skylines or signatures; it only decides which rows go where. Query paths
// do not use it: remote execution shards the rows as page ranges
// (core.PageRange). It stays as the API the repository benchmark's sharded
// route calls.
//
// Correctness does not depend on the partitioning: any disjoint cover of
// the live rows yields the same merged skyline. Partitioning quality only
// affects balance and merge cost.
package shard

import (
	"fmt"
	"sort"

	"skydiver/internal/data"
)

// Sharder carves a dataset into n disjoint shards. Implementations must
// return exactly n row-id lists (some possibly empty) that together cover
// every live (non-tombstoned) row exactly once, each list sorted ascending.
// Tombstoned rows are never assigned: sub-datasets built from shard rows
// contain live points only.
type Sharder interface {
	// Name identifies the partitioning scheme (for logs and stats).
	Name() string
	// Partition assigns every live row of ds to one of n shards.
	Partition(ds *data.Dataset, n int) ([][]int, error)
}

// Grid is an equi-depth grid sharder: it factorizes the shard count into
// per-axis fanouts, assigns the largest factors to the axes with the widest
// extents, and splits recursively at coordinate quantiles so every shard
// receives an equal share of the rows regardless of the data distribution.
// Quantile cuts (rather than equal-width cells) keep shards balanced on
// correlated and clustered data, where equal-width grids concentrate most
// points in a few cells.
type Grid struct{}

// Name returns "grid".
func (Grid) Name() string { return "grid" }

// Partition implements Sharder.
func (Grid) Partition(ds *data.Dataset, n int) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: non-positive shard count %d", n)
	}
	live := make([]int, 0, ds.LiveLen())
	for i := 0; i < ds.Len(); i++ {
		if !ds.Deleted(i) {
			live = append(live, i)
		}
	}
	if n == 1 {
		return [][]int{live}, nil
	}

	axes := axesByExtent(ds, live)
	fanouts := assignFanouts(n, len(axes))

	shards := make([][]int, 0, n)
	var split func(rows []int, level int)
	split = func(rows []int, level int) {
		if level == len(fanouts) {
			// Leaf cell of the fanout tree = one shard. Restore ascending row
			// order (the recursive splits sorted by coordinates).
			out := append([]int(nil), rows...)
			sort.Ints(out)
			shards = append(shards, out)
			return
		}
		axis := axes[level%len(axes)]
		f := fanouts[level]
		// Equi-depth cut: order by the split axis (ties by row id for
		// determinism) and hand each child an equal-count slice.
		sorted := append([]int(nil), rows...)
		sort.Slice(sorted, func(a, b int) bool {
			va, vb := ds.Point(sorted[a])[axis], ds.Point(sorted[b])[axis]
			if va != vb {
				return va < vb
			}
			return sorted[a] < sorted[b]
		})
		for g := 0; g < f; g++ {
			lo, hi := g*len(sorted)/f, (g+1)*len(sorted)/f
			split(sorted[lo:hi], level+1)
		}
	}
	split(live, 0)
	if len(shards) != n {
		return nil, fmt.Errorf("shard: grid produced %d shards, want %d", len(shards), n)
	}
	return shards, nil
}

// axesByExtent orders the dimensions by decreasing extent over the given
// rows, so the widest axes receive the largest split fanouts.
func axesByExtent(ds *data.Dataset, rows []int) []int {
	d := ds.Dims()
	axes := make([]int, d)
	for j := range axes {
		axes[j] = j
	}
	if len(rows) == 0 {
		return axes
	}
	lo := append([]float64(nil), ds.Point(rows[0])...)
	hi := append([]float64(nil), ds.Point(rows[0])...)
	for _, i := range rows[1:] {
		p := ds.Point(i)
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	sort.SliceStable(axes, func(a, b int) bool {
		return hi[axes[a]]-lo[axes[a]] > hi[axes[b]]-lo[axes[b]]
	})
	return axes
}

// assignFanouts factorizes n into a sequence of split fanouts, largest
// first, at most one per recursion level. Prime factors descending means
// the widest axis (level 0) absorbs the coarsest split; a prime n becomes a
// single n-way split along the widest axis.
func assignFanouts(n, maxLevels int) []int {
	factors := primeFactorsDesc(n)
	if len(factors) <= maxLevels {
		return factors
	}
	// More factors than axes: merge the smallest factors into the last level
	// so no axis is split twice in a row at adjacent levels.
	out := append([]int(nil), factors[:maxLevels]...)
	for _, f := range factors[maxLevels:] {
		out[maxLevels-1] *= f
	}
	return out
}

// primeFactorsDesc returns the prime factorization of n, largest first.
func primeFactorsDesc(n int) []int {
	var f []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			f = append(f, p)
			n /= p
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(f)))
	return f
}
