package skydiver

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation section, each driving the corresponding experiment
// runner at a reduced scale (the full sweeps are run by cmd/skybench, whose
// -scale flag goes up to the paper cardinalities). A handful of
// end-to-end API benchmarks follows.

import (
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"skydiver/internal/cluster"
	"skydiver/internal/exp"
)

// benchEnv returns an experiment environment scaled for benchmarking: every
// dataset clamps to the ~1000-point floor so one iteration stays in the
// millisecond-to-second range.
func benchEnv() *exp.Env {
	e := exp.NewEnv()
	e.Scale = 0.002
	return e
}

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r := exp.Lookup(id)
	if r == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		// A fresh env per iteration so dataset preparation is measured too
		// and memoization cannot short-circuit the work.
		env := benchEnv()
		tables, err := r.Run(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (k-max-coverage vs k-dispersion).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig2 regenerates the Figure 2 MSDP/MMDP illustration.
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig8 regenerates Figure 8 (signature-generation time vs t).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (signature generation vs cardinality
// and dimensionality).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (runtime vs dimensionality).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (runtime vs k).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (quality vs k).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (LSH vs MinHash memory/quality).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkSparsity regenerates the Section 3.2 sparsity measurement.
func BenchmarkSparsity(b *testing.B) { runExperiment(b, "sparsity") }

// BenchmarkAblation runs the design-choice ablations (selection seeding
// strategy, MinHash estimate error vs signature size).
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// --- end-to-end public API benchmarks ------------------------------------

func benchDataset(b *testing.B, dist Distribution, n, d int) *Dataset {
	b.Helper()
	ds, err := Generate(dist, n, d, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ds.Skyline(); err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkDiversifyMH measures the MinHash pipeline end to end (skyline
// pre-computed) on IND 20K 4D.
func BenchmarkDiversifyMH(b *testing.B) {
	ds := benchDataset(b, Independent, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Diversify(Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiversifyLSH measures the LSH pipeline on IND 20K 4D.
func BenchmarkDiversifyLSH(b *testing.B) {
	ds := benchDataset(b, Independent, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Diversify(Options{K: 10, Algorithm: LSH}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiversifySG measures the Simple-Greedy baseline on IND 20K 4D —
// orders of magnitude slower than MH/LSH, as in the paper.
func BenchmarkDiversifySG(b *testing.B) {
	ds := benchDataset(b, Independent, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Diversify(Options{K: 10, Algorithm: Greedy}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentServing measures mixed-algorithm query throughput on
// one shared Dataset: every parallel worker checks out its own I/O session,
// so this is the concurrency-scaling counterpart of the per-algorithm
// benchmarks above (compare ns/op here against the sequential numbers).
func BenchmarkConcurrentServing(b *testing.B) {
	ds := benchDataset(b, Independent, 2000, 3)
	mix := []Options{
		{K: 4, Seed: 7},
		{K: 4, Seed: 7, Algorithm: LSH},
		{K: 4, Seed: 7, Algorithm: Greedy},
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			opts := mix[int(next.Add(1))%len(mix)]
			if _, err := ds.Diversify(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentServingCached measures repeated same-parameter query
// throughput with the fingerprint cache on: after the first build every
// query reuses the resident signatures, so this is the steady state of a
// serving process answering a popular query. Its counterpart
// BenchmarkConcurrentServingNoCache pays the full Phase-1 pass every time;
// the ratio of the two ns/op values is the cache's serving speedup (the
// acceptance bar is ≥ 2×).
func BenchmarkConcurrentServingCached(b *testing.B) {
	benchConcurrentSameQuery(b, Options{K: 10, Seed: 7})
}

// BenchmarkConcurrentServingCachedLSH is the LSH twin of
// BenchmarkConcurrentServingCached: every query reuses the resident
// fingerprint and the LSH bit-vectors memoized with it, so a query that
// rebuilt the vectors instead would cost several times its ns/op.
func BenchmarkConcurrentServingCachedLSH(b *testing.B) {
	benchConcurrentSameQuery(b, Options{K: 10, Seed: 7, Algorithm: LSH})
}

// BenchmarkConcurrentServingNoCache is the cache-bypassed baseline for
// BenchmarkConcurrentServingCached.
func BenchmarkConcurrentServingNoCache(b *testing.B) {
	benchConcurrentSameQuery(b, Options{K: 10, Seed: 7, NoCache: true})
}

func benchConcurrentSameQuery(b *testing.B, opts Options) {
	b.Helper()
	ds := benchDataset(b, Independent, 20000, 4)
	// Warm once so the cached variant measures steady-state hits, not the
	// one-time build.
	if _, err := ds.Diversify(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ds.Diversify(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteServing prices the network hop of multi-node shard
// execution: the same end-to-end uncached MinHash query on IND-100K-4D
// served in process ("local") and, in two shards, by a two-worker
// in-process HTTP fleet ("remote"). The fleet pays JSON framing, the
// replica digests and checksummed matrix transfer; the gap between the two
// numbers is that overhead, and the regression gate keeps it from silently
// growing. Both runs pin Workers to 2, so the local fold's goroutines and
// allocations do not scale with the host's CPU count.
func BenchmarkRemoteServing(b *testing.B) {
	ds := benchDataset(b, Independent, 100000, 4)
	workers := make([]string, 2)
	for i := range workers {
		w, err := cluster.NewWorker(cluster.WorkerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		b.Cleanup(srv.Close)
		workers[i] = srv.URL
	}
	runs := []struct {
		label string
		opts  Options
	}{
		{"local", Options{K: 10, Seed: 7, Workers: 2, NoCache: true}},
		{"remote", Options{K: 10, Seed: 7, Shards: 2, Workers: 2, NoCache: true,
			Remote: &RemoteOptions{Workers: workers}}},
	}
	for _, r := range runs {
		b.Run(r.label, func(b *testing.B) {
			// Warm the index and skyline (and, remotely, the workers'
			// regenerated dataset replicas) outside the timer; NoCache
			// still forces the full Phase-1 fold every iteration.
			if _, err := ds.Diversify(r.opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ds.Diversify(r.opts)
				if err != nil {
					b.Fatal(err)
				}
				if r.opts.Remote != nil && res.Remote.Remote != 2 {
					b.Fatalf("fleet served %d of 2 shards", res.Remote.Remote)
				}
			}
		})
	}
}

// BenchmarkSkylineANT measures skyline computation (BBS) setup cost on a
// skyline-heavy anticorrelated dataset.
func BenchmarkSkylineANT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := Generate(Anticorrelated, 20000, 4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Skyline(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiversifyGraph measures coordinate-free diversification over an
// explicit dominance graph.
func BenchmarkDiversifyGraph(b *testing.B) {
	gamma := make([][]int, 200)
	for j := range gamma {
		for r := j * 37; r < j*37+500; r++ {
			gamma[j] = append(gamma[j], r%5000)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiversifyGraph(gamma, 10, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamic runs the continuous-diversification extension experiment.
func BenchmarkDynamic(b *testing.B) { runExperiment(b, "dynamic") }

// BenchmarkParallel runs the parallel fingerprinting extension experiment.
func BenchmarkParallel(b *testing.B) { runExperiment(b, "parallel") }
