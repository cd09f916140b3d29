#!/usr/bin/env bash
# Builds the benchmark and gep-server from this checkout, then runs the
# benchmark with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload dense-facade --seed 1 --seconds 30 --trace 0
#
# Everything it writes (binaries, the Go build cache and temporary
# files, out-of-core stores, traces, result records) goes under
# .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -o "$out/gep-server" ./cmd/gep-server
(cd perfbench && go build -o "$out/perfbench" .)
# Every workload's thread budget is 2 (runtime workers in the benchmark
# and in gep-server); a host with fewer cores is flagged oversubscribed.
export GOMAXPROCS=2
exec "$out/perfbench" --out "$out" --server "$out/gep-server" "$@"
