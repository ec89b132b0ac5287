package core

import (
	"context"
	"testing"

	"skydiver/internal/minhash"
	"skydiver/internal/shard"
	"skydiver/internal/skyline"
)

// TestShardFingerprintMergesIdentical pins the per-shard fold exports the
// cluster backend is built on: folding each shard separately (via the plan
// path a worker runs, and via the direct local-recompute path) and merging
// by per-slot minima + score sums reproduces the unsharded SigGen-IF pass
// bit-identically.
func TestShardFingerprintMergesIdentical(t *testing.T) {
	for name, ds := range shardTestDatasets() {
		sky := skyline.Compute(ds, skyline.SFS)
		fam, _ := minhash.NewFamily(64, 9)
		want, err := SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			plan, err := BuildShardPlan(context.Background(), ds, shard.Grid{}, n, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := len(plan.Sky)
			merged := &Fingerprint{Matrix: minhash.NewMatrix(fam.Size(), m), DomScore: make([]float64, m)}
			for i := range plan.Shards {
				fp, err := plan.ShardFingerprint(context.Background(), i, fam)
				if err != nil {
					t.Fatalf("%s/n=%d shard %d: %v", name, n, i, err)
				}
				// The direct (tree-free) fold a failed shard is recomputed
				// with must agree with the worker's plan fold exactly.
				local, err := ShardFingerprintLocal(context.Background(), ds, plan.Sky, plan.Shards[i].Rows, fam)
				if err != nil {
					t.Fatalf("%s/n=%d shard %d local: %v", name, n, i, err)
				}
				for c := 0; c < m; c++ {
					if fp.DomScore[c] != local.DomScore[c] {
						t.Fatalf("%s/n=%d shard %d: local DomScore[%d] diverged", name, n, i, c)
					}
					pc, lc := fp.Matrix.Column(c), local.Matrix.Column(c)
					for s := range pc {
						if pc[s] != lc[s] {
							t.Fatalf("%s/n=%d shard %d: local col %d slot %d diverged", name, n, i, c, s)
						}
					}
					merged.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
					merged.DomScore[c] += fp.DomScore[c]
				}
			}
			for c := range sky {
				if merged.DomScore[c] != want.DomScore[c] {
					t.Fatalf("%s/n=%d: merged DomScore[%d] = %v, want %v",
						name, n, c, merged.DomScore[c], want.DomScore[c])
				}
				gc, wc := merged.Matrix.Column(c), want.Matrix.Column(c)
				for s := range wc {
					if gc[s] != wc[s] {
						t.Fatalf("%s/n=%d: merged col %d slot %d = %d, want %d", name, n, c, s, gc[s], wc[s])
					}
				}
			}
		}
	}
}
