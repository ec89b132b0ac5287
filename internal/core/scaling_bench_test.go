package core

import (
	"context"
	"fmt"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
)

// scaling_bench_test.go is the Phase-1 parallel-scaling suite: the same
// SigGen pass at fixed worker counts plus the hardware default, so the
// checked-in BENCH_phase1.json records how fingerprint construction scales
// and `make benchgate` catches regressions at any point on the curve. The
// "wmax" variants use GOMAXPROCS workers — a machine-dependent value behind
// a machine-independent benchmark name, so snapshots from different hosts
// stay comparable by name.

// scalingWorkerCounts is the ladder the suite measures: 1 worker (the
// sequential delegation path), 2, 4, and the hardware default.
var scalingWorkerCounts = []struct {
	label   string
	workers int
}{
	{"w1", 1},
	{"w2", 2},
	{"w4", 4},
	{"wmax", 0}, // 0 resolves to GOMAXPROCS inside the generators
}

func BenchmarkSigGenIFParallelScale(b *testing.B) {
	ds := data.Independent(100000, 4, 1)
	in := testInput(b, ds)
	for _, sc := range scalingWorkerCounts {
		b.Run(sc.label, func(b *testing.B) {
			fam, _ := minhash.NewFamily(100, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SigGenIFParallel(ds, in.Sky, fam, sc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSigGenIBParallelScale(b *testing.B) {
	ds := data.Independent(100000, 4, 1)
	in := testInput(b, ds)
	for _, sc := range scalingWorkerCounts {
		b.Run(sc.label, func(b *testing.B) {
			fam, _ := minhash.NewFamily(100, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.Tree.Reopen(0.2) // cold pool: every pass pays real page faults
				if _, err := SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, sc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSigGenSeeds runs one-worker SigGen-IF and SigGen-IB on
// IND-100K-4D at hash seeds 1–5. The hash family moves the pass by up to
// three times: seed 4 has a slot whose values fall on nearly every row (see
// the hash-seed item of ROADMAP.md), so a change that only suits one family
// shows here.
func BenchmarkSigGenSeeds(b *testing.B) {
	ds := data.Independent(100000, 4, 1)
	in := testInput(b, ds)
	for seed := int64(1); seed <= 5; seed++ {
		fam, _ := minhash.NewFamily(100, seed)
		b.Run(fmt.Sprintf("if/seed%d", seed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SigGenIF(ds, in.Sky, fam); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ib/seed%d", seed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.Tree.Reopen(0.2) // cold pool, as in BenchmarkSigGenIBParallelScale
				if _, err := SigGenIB(in.Tree, ds, in.Sky, fam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
