#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash repobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary page files, span dumps) stays under
# .bench_build/ in the current directory. A missing or broken program tree
# fails the build, and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/repobench" && go build -o "$out/repobench" .) >&2
exec "$out/repobench" "$@"
