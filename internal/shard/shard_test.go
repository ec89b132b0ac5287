package shard_test

import (
	"fmt"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/shard"
)

func canon(t *testing.T, ds *data.Dataset) *data.Dataset {
	t.Helper()
	c, err := ds.Canonicalize(geom.MinPrefs(ds.Dims()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkPartition asserts the Sharder contract: exactly n shards that
// disjointly cover the live rows, each ascending.
func checkPartition(t *testing.T, tag string, ds *data.Dataset, parts [][]int, n int) {
	t.Helper()
	if len(parts) != n {
		t.Fatalf("%s: %d shards, want %d", tag, len(parts), n)
	}
	seen := make(map[int]bool)
	total := 0
	for si, rows := range parts {
		for i, r := range rows {
			if i > 0 && rows[i-1] >= r {
				t.Fatalf("%s: shard %d not strictly ascending at %d", tag, si, i)
			}
			if r < 0 || r >= ds.Len() || ds.Deleted(r) {
				t.Fatalf("%s: shard %d contains invalid row %d", tag, si, r)
			}
			if seen[r] {
				t.Fatalf("%s: row %d assigned twice", tag, r)
			}
			seen[r] = true
			total++
		}
	}
	if total != ds.LiveLen() {
		t.Fatalf("%s: %d rows covered, want %d", tag, total, ds.LiveLen())
	}
}

// TestGridEdgeCases pins Grid behavior on the degenerate inputs the fleet
// can be handed: more shards than live rows, nearly everything tombstoned,
// zero-extent axes, and prime shard counts on low-dimensional data.
func TestGridEdgeCases(t *testing.T) {
	t.Run("more shards than rows", func(t *testing.T) {
		ds := canon(t, data.Independent(3, 2, 1))
		parts, err := shard.Grid{}.Partition(ds, 7)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, "n>rows", ds, parts, 7)
	})
	t.Run("all but one tombstoned", func(t *testing.T) {
		ds := canon(t, data.Independent(50, 3, 2))
		for i := 1; i < ds.Len(); i++ {
			ds.MarkDeleted(i)
		}
		parts, err := shard.Grid{}.Partition(ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, "tombstoned", ds, parts, 4)
		survivors := 0
		for _, rows := range parts {
			for _, r := range rows {
				if r != 0 {
					t.Fatalf("unexpected survivor %d", r)
				}
				survivors++
			}
		}
		if survivors != 1 {
			t.Fatalf("%d survivors across shards, want 1", survivors)
		}
	})
	t.Run("zero-extent axis", func(t *testing.T) {
		// Every point shares its second coordinate: one axis has zero
		// extent, so all the splitting signal is on the other.
		ds := data.Independent(40, 2, 3)
		for i := 0; i < ds.Len(); i++ {
			ds.Point(i)[1] = 0.5
		}
		ds = canon(t, ds)
		parts, err := shard.Grid{}.Partition(ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, "flat-axis", ds, parts, 4)
	})
	t.Run("prime shard counts on low-d data", func(t *testing.T) {
		for _, n := range []int{3, 5, 7, 11, 13} {
			ds := canon(t, data.Independent(100, 2, int64(n)))
			parts, err := shard.Grid{}.Partition(ds, n)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			checkPartition(t, trialTag("grid", 2, n), ds, parts, n)
		}
	})
	t.Run("empty dataset", func(t *testing.T) {
		ds := data.Independent(5, 2, 4)
		for i := 0; i < ds.Len(); i++ {
			ds.MarkDeleted(i)
		}
		parts, err := shard.Grid{}.Partition(ds, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, "empty", ds, parts, 3)
	})
}

func trialTag(kind string, dims, n int) string {
	return fmt.Sprintf("%s/%dd/n=%d", kind, dims, n)
}
