package main

// layerSpec records, before any measurement, which end-to-end metric each
// per-layer metric should move and on which workload, and where it should
// leave the end-to-end numbers unchanged. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step). A traced run
// prints every metric; one its workload does not exercise reads 0.
type layerSpec struct {
	name, unit, better string
	workloads          string // where it is measured
	moves              string // end-to-end metric and workload it should move
	stays              string // where it should not move anything
}

var layerSpecs = []layerSpec{
	// Phase 1: the routes of the cold workload.
	{"if_p50_ms", "ms", "lower", "cold", "p50_ms, qps on cold", "serve, restart"},
	{"ib_p50_ms", "ms", "lower", "cold", "p50_ms, qps on cold", "serve, restart"},
	{"sharded_p50_ms", "ms", "lower", "cold", "p50_ms, qps on cold", "serve, restart"},
	{"core.sig_if_ms", "ms", "lower", "cold", "if_p50_ms, p50_ms, qps on cold", "serve (Phase 1 is resident)"},
	{"core.sig_ib_ms", "ms", "lower", "cold", "ib_p50_ms, p50_ms on cold", "serve; if_p50_ms on cold"},
	{"core.sig_sharded_ms", "ms", "lower", "cold", "sharded_p50_ms, p50_ms on cold", "serve; if_p50_ms on cold"},
	{"core.plan_build_ms", "ms", "lower", "cold", "setup_s on cold", "p50_ms on cold (the plan is cached)"},
	{"pager.reads_per_query", "count", "lower", "cold", "ib_p50_ms, skydiver.sim_io_ms on cold", "serve, restart"},
	{"pager.faults_per_query", "count", "lower", "cold", "ib_p50_ms, skydiver.sim_io_ms on cold", "serve, restart"},
	{"rtree.decode_hits_per_query", "count", "higher", "cold", "ib_p50_ms on cold", "serve; if_p50_ms on cold"},
	{"rtree.decodes_per_query", "count", "lower", "cold", "ib_p50_ms on cold", "serve; if_p50_ms on cold"},
	{"skydiver.sim_io_ms", "ms", "lower", "cold", "the paper's I/O column (8 ms per simulated fault); no wall-clock metric", "every wall-clock metric"},
	{"skydiver.overhead_ms", "ms", "lower", "cold", "every route p50 on cold", "serve"},

	// Phase 2 and serving.
	{"dispersion.select_ms", "ms", "lower", "cold, serve", "p50_ms, qps on serve", "cold (under 1% of every route's p50)"},
	{"server.http_ms", "ms", "lower", "serve", "p50_ms, qps on serve", "cold"},
	{"minhash.estimates_per_query", "count", "lower", "serve", "p50_ms on serve", "cold"},
	{"lsh.build_ms", "ms", "lower", "serve", "p50_ms, tail_ms on serve", "cold"},
	{"core.fpcache_hit_ratio", "ratio", "higher", "serve", "tail_ms on serve", "cold (NoCache)"},
	{"core.fpcache_builds", "count", "lower", "serve", "tail_ms on serve (expected 0)", "cold (NoCache)"},
	{"core.maintain_ms", "ms", "lower", "serve", "write_p50_ms, tail_ms on serve", "cold, restart"},
	{"skydiver.write_wait_ms", "ms", "lower", "serve", "write_p50_ms, tail_ms on serve (about 0: the one client never reads while it writes)", "cold"},
	{"core.skyline_writes_pct", "%", "lower", "serve", "write_p50_ms on serve", "cold"},
	{"server.non_full_responses", "count", "lower", "serve", "failed on serve (expected 0)", "cold"},
	{"pager.breaker_fast_fails", "count", "lower", "serve", "failed on serve (expected 0)", "cold"},
	{"write_p50_ms", "ms", "lower", "serve", "tail_ms, qps on serve", "cold"},

	// The storage tier.
	{"data.load_ms", "ms", "lower", "restart", "p50_ms on restart", "cold, serve"},
	{"rtree.snapshot_load_ms", "ms", "lower", "restart", "p50_ms on restart", "cold, serve"},
	{"skyline.bbs_ms", "ms", "lower", "restart", "p50_ms on restart", "cold, serve"},
	{"rtree.decodes_per_open", "count", "lower", "restart", "p50_ms on restart (a warm start promises 0)", "cold, serve"},
	{"skydiver.close_ms", "ms", "lower", "restart", "p50_ms on restart", "cold, serve"},

	// The Go runtime, on every workload.
	{"runtime.alloc_mb_per_op", "MB", "lower", "all", "heap_mb, qps", "nothing"},
	{"runtime.gc_cpu_pct", "%", "lower", "all", "qps, tail_ms", "nothing"},
}

// runtimeLayers returns the runtime metrics of the untraced phase, which
// replays nothing and so allocates only what the program does.
func runtimeLayers(p *phase) map[string]float64 {
	return map[string]float64{
		"runtime.alloc_mb_per_op": p.rt.allocMB / float64(max(p.totalOps(), 1)),
		"runtime.gc_cpu_pct":      p.rt.gcCPUPct,
	}
}
