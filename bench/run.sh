#!/usr/bin/env bash
# Builds the qulrbd benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload tiny-durable --seed 2024 --seconds 24 --trace 0
#
# Every flag is passed through to the benchmark (see bench/README.md).
# Builds and runs write only below the working directory: the Go build
# cache, the binaries and the daemon state go to .bench_build/, results
# and span files to bench/out/. The module proxy is off; the benchmark
# has no third-party dependencies.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gomod" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

go -C "$root/bench" build -o "$work/qulrbench" .
exec "$work/qulrbench" -root "$root" "$@"
