GO ?= go

# Where `make bench` writes its JSON snapshots. The default overwrites the
# checked-in baselines (do that when a PR legitimately moves the numbers);
# `make benchgate` redirects it to a scratch directory and compares instead.
BENCH_OUT ?= .
# Multiplicative ns/op tolerance of the regression gate. Generous on
# purpose: CI hardware differs from the baseline host and the SigGen
# benchmarks time few iterations, so the gate is tuned to catch dropped
# fast paths and accidental O(n²), not scheduler noise.
BENCH_TOL ?= 3.0

.PHONY: build vet test race concurrency resilience serve serve-smoke cluster cluster-smoke fuzz repobench verify bench benchgate bench-full bench-storage storage-smoke

build:
	$(GO) build ./...

# gofmt must have nothing to say about the Go files of the main module's
# package directories (go list skips the separate repobench module; the
# files are listed per directory because gofmt recurses into directories).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(for d in $$($(GO) list -f '{{.Dir}}' ./...); do echo $$d/*.go; done)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# -shuffle=on randomizes test order within each package, so accidental
# order dependence (shared caches, leaked globals) fails in CI instead of
# lurking. The seed is printed on failure for reproduction.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# The concurrent-serving suite on its own: the race-enabled query waves plus
# the session, pool, and golden accounting regressions they depend on.
concurrency:
	$(GO) test -race -shuffle=on -run 'Concurrent|Session|BufferPool|Golden' . ./internal/rtree ./internal/pager ./internal/core

# The resilience suite on its own: race-enabled admission-control waves,
# breaker trip/recovery (the state machine in internal/retry, the read-path
# classification in internal/pager), budget exhaustion, the degradation
# ladder, and the overload storm that runs them all at once.
resilience:
	$(GO) test -race -shuffle=on -run 'Admission|Breaker|Budget|Degrade|Overload' . ./internal/admission ./internal/budget ./internal/pager ./internal/retry

# The serving-tier suite on its own: registry lifecycle/eviction races,
# taxonomy mapping, drain semantics, panic recovery, /stats reconciliation.
serve:
	$(GO) test -race -shuffle=on ./internal/server

# End-to-end smoke of the network tier: boot skyserved, replay ~10s of mixed
# query waves with skyblast under a flapping fault schedule, assert the
# response-taxonomy and /stats-reconciliation invariants, then SIGTERM and
# assert a clean drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# The multi-node suite on its own: race-enabled remote-executor ladder tests
# (retry/hedge/failover/breaker against in-process worker fleets), the shard
# worker's protocol and fault-injection surface, the grid sharder's edge
# cases, and the root-level remote-vs-local bit-identity pins.
cluster:
	$(GO) test -race -shuffle=on -run 'Remote|Worker|GridEdge|Matrix|DatasetSpec|WireFault' . ./internal/cluster ./internal/httpx ./internal/shard

# End-to-end smoke of multi-node shard execution: boot a two-worker skyshardd
# fleet plus skyserved -shard-workers, replay mixed waves including ?remote=1,
# SIGKILL one worker mid-wave (failover must keep answers bit-identical),
# restart it, and assert clean drains everywhere.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Run every Fuzz* target of the main module for FUZZTIME each. The targets
# are listed per package with `go test -list`, so a new one is picked up
# without editing this file.
FUZZTIME ?= 20s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Benchmark pass emitting the JSON snapshots that make hot-path regressions
# reviewable in diffs (and enforceable via benchgate). Three suites:
#
#   BENCH_phase1.json  — Phase-1 construction: MinHash estimator/hash
#                        kernels (fixed 10000 iterations, so the ns-scale
#                        numbers are real measurements rather than one-shot
#                        noise) and the SigGen fingerprint passes, including
#                        the worker-scaling ladder (w1/w2/w4/wmax).
#   BENCH_select.json  — Phase-2 greedy selection.
#   BENCH_serving.json — end-to-end concurrent serving (mixed algorithms,
#                        fingerprint cache on and bypassed).
#   BENCH_dynamic.json — mutation throughput: raw stream ingestion
#                        (MonitorAdd), steady-state refresh latency on a 100K
#                        window incremental vs wholesale (the acceptance
#                        criterion is a ≥5× gap; in practice it is orders of
#                        magnitude), and public Dataset.Insert and
#                        Dataset.Delete end to end (skyline maintenance +
#                        signature patch + epoch migration).
#                        The incremental refresh runs 1000 steps: its costly
#                        steps (promotions, slot repairs) are rare — the
#                        first comes at step 32 of its stream — so a short
#                        run would time only cheap ones.
#   BENCH_remote.json  — the same uncached query in process vs in two shards
#                        over a two-worker HTTP fleet, both with Workers 2:
#                        the wire/framing/digest overhead of multi-node
#                        execution, gated so it cannot silently grow.
#
# Heavy benchmarks time few iterations (-benchtime=1x/3x) to keep CI cheap.
# Every stanza runs -count=5 and benchjson keeps each benchmark's median
# sample, so a host stall that lands in one or two samples does not move
# the recorded number; for publication-grade numbers rerun locally with
# bench-full.
bench:
	@mkdir -p $(BENCH_OUT)
	{ $(GO) test -run '^$$' -bench 'EstimateJs|HashAll' -benchmem -benchtime=10000x -count=5 ./internal/minhash ; \
	  $(GO) test -run '^$$' -bench 'SigGen' -benchmem -benchtime=1x -count=5 ./internal/core ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_phase1.json
	$(GO) test -run '^$$' -bench 'SelectSequential|SelectDiverseSet' \
		-benchmem -benchtime=1x -count=5 ./internal/dispersion . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_select.json
	$(GO) test -run '^$$' -bench 'ConcurrentServing' -benchmem -benchtime=3x -count=5 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_serving.json
	{ $(GO) test -run '^$$' -bench 'MonitorAdd$$' -benchmem -benchtime=10000x -count=5 ./internal/dynamic ; \
	  $(GO) test -run '^$$' -bench 'RefreshIncremental100K' -benchmem -benchtime=1000x -count=5 ./internal/dynamic ; \
	  $(GO) test -run '^$$' -bench 'RefreshWholesale100K' -benchmem -benchtime=1x -count=5 ./internal/dynamic ; \
	  $(GO) test -run '^$$' -bench 'Dataset(Insert|Delete)' -benchmem -benchtime=200x -count=5 . ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_dynamic.json
	$(GO) test -run '^$$' -bench 'RemoteServing' -benchmem -benchtime=3x -count=5 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_remote.json

# The storage-tier suite (BENCH_storage.json): cold-open vs warm-start
# time-to-first-result, steady-state query latency, and the bounded-memory
# streaming pipeline, each against both page-store backends at IND-1M. The
# suite is env-gated in the bench source (SKYDIVER_BENCH_STORAGE) so a plain
# `go test -bench .` stays cheap; the IND-10M streaming run additionally
# wants SKYDIVER_BENCH_STORAGE_10M and is for local use only.
bench-storage:
	@mkdir -p $(BENCH_OUT)
	SKYDIVER_BENCH_STORAGE=1 $(GO) test -run '^$$' \
		-bench 'Storage(ColdOpen|WarmOpen|SteadyState|Stream)1M' \
		-benchmem -benchtime=1x -count=1 -timeout 30m . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)/BENCH_storage.json

# Regression gate: rerun the benchmark suites into a scratch directory and
# compare each snapshot against its checked-in baseline with a generous
# tolerance (see BENCH_TOL above and cmd/benchgate for the exact rules). A
# PR that legitimately moves the numbers regenerates the baselines with
# `make bench` and commits them.
benchgate:
	$(MAKE) bench BENCH_OUT=.bench-fresh
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_phase1.json .bench-fresh/BENCH_phase1.json
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_select.json .bench-fresh/BENCH_select.json
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_serving.json .bench-fresh/BENCH_serving.json
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_dynamic.json .bench-fresh/BENCH_dynamic.json
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_remote.json .bench-fresh/BENCH_remote.json
	$(MAKE) bench-storage BENCH_OUT=.bench-fresh
	$(GO) run ./cmd/benchgate -tol $(BENCH_TOL) BENCH_storage.json .bench-fresh/BENCH_storage.json

# The full multi-iteration benchmark sweep (slow; local use).
bench-full:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# End-to-end smoke of the physical storage tier: datagen streams IND-1M to
# disk, a first skydiver process builds a file-backed index and persists a
# warm-start snapshot, the process exits (nothing survives but the two
# files), and a second process reopens from the snapshot — whose first query
# must be bit-identical to the cold one.
storage-smoke:
	sh scripts/storage_smoke.sh

# The repository benchmark (repobench/) is its own module and calls internal
# functions of this one (core.BuildShardPlan, core.SigGenShardedCtx,
# core.SigGenIFCtx, lsh.BuildCtx, ...), so vet and test it here: a change to
# one of them fails CI instead of the benchmark run. Vet and test write no
# binary into the source tree, unlike `go build`.
repobench:
	cd repobench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...

# Tier-1 verification: static checks, build, the full suite under the race
# detector, the concurrent-serving, resilience, serving-tier and multi-node
# suites, the repository benchmark's module, and the storage-tier
# persistence smoke.
verify: vet build race concurrency resilience serve cluster repobench storage-smoke
