package shard_test

import (
	"context"
	"fmt"
	"testing"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
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

// TestAngularMatchesGridGolden is the satellite's golden pin: on the
// anticorrelated workload the angle-based sharder exists for, the merged
// skyline AND the merged signature fingerprint are bit-identical to Grid's
// for shard counts {1, 2, 4, 8} — partitioning only redistributes work.
func TestAngularMatchesGridGolden(t *testing.T) {
	ds := canon(t, data.Anticorrelated(400, 3, 21))
	fam, err := minhash.NewFamily(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		gridPlan, err := core.BuildShardPlan(context.Background(), ds, shard.Grid{}, n, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		anglePlan, err := core.BuildShardPlan(context.Background(), ds, shard.Angular{}, n, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(anglePlan.Sky) != len(gridPlan.Sky) {
			t.Fatalf("n=%d: angle skyline %d points, grid %d", n, len(anglePlan.Sky), len(gridPlan.Sky))
		}
		for i := range gridPlan.Sky {
			if anglePlan.Sky[i] != gridPlan.Sky[i] {
				t.Fatalf("n=%d: merged skyline diverged at %d: %d vs %d",
					n, i, anglePlan.Sky[i], gridPlan.Sky[i])
			}
		}
		gfp := mergeShardFolds(t, gridPlan, fam)
		afp := mergeShardFolds(t, anglePlan, fam)
		for c := range gridPlan.Sky {
			if afp.DomScore[c] != gfp.DomScore[c] {
				t.Fatalf("n=%d: DomScore[%d] = %v, want %v", n, c, afp.DomScore[c], gfp.DomScore[c])
			}
			ac, gc := afp.Matrix.Column(c), gfp.Matrix.Column(c)
			for s := range gc {
				if ac[s] != gc[s] {
					t.Fatalf("n=%d: col %d slot %d = %d, want %d", n, c, s, ac[s], gc[s])
				}
			}
		}
	}
}

// mergeShardFolds folds every shard of plan on its own and min-merges the
// folds, as the cluster coordinator does.
func mergeShardFolds(t *testing.T, plan *core.ShardPlan, fam *minhash.Family) *core.Fingerprint {
	t.Helper()
	m := len(plan.Sky)
	out := &core.Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
	for i := range plan.Shards {
		fp, err := plan.ShardFingerprint(context.Background(), i, fam)
		if err != nil {
			t.Fatal(err)
		}
		for c := range m {
			out.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
			out.DomScore[c] += fp.DomScore[c]
		}
	}
	return out
}

// TestAngularContract runs the Sharder contract across dimensions and shard
// counts, including 1-D data (no angles, raw-coordinate split) and counts
// with prime factors larger than the axis count.
func TestAngularContract(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		ds := canon(t, data.Anticorrelated(150, dims, 9))
		for _, n := range []int{1, 2, 3, 5, 7, 8} {
			parts, err := shard.Angular{}.Partition(ds, n)
			if err != nil {
				t.Fatalf("d=%d n=%d: %v", dims, n, err)
			}
			checkPartition(t, trialTag("angle", dims, n), ds, parts, n)
		}
	}
	if _, err := (shard.Angular{}).Partition(data.Independent(10, 2, 1), 0); err == nil {
		t.Fatal("n=0: want error")
	}
	if (shard.Angular{}).Name() != "angle" {
		t.Fatal("Name() != angle")
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
		for _, sh := range []shard.Sharder{shard.Grid{}, shard.Angular{}} {
			parts, err := sh.Partition(ds, 4)
			if err != nil {
				t.Fatalf("%s: %v", sh.Name(), err)
			}
			checkPartition(t, sh.Name()+"/flat-axis", ds, parts, 4)
		}
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
		for _, sh := range []shard.Sharder{shard.Grid{}, shard.Angular{}} {
			parts, err := sh.Partition(ds, 3)
			if err != nil {
				t.Fatalf("%s: %v", sh.Name(), err)
			}
			checkPartition(t, sh.Name()+"/empty", ds, parts, 3)
		}
	})
}

func trialTag(kind string, dims, n int) string {
	return fmt.Sprintf("%s/%dd/n=%d", kind, dims, n)
}
