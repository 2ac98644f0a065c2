#!/usr/bin/env bash
# Builds the memsperf benchmark from source and runs it with the given
# flags, for example from the repository root:
#
#   bash bench/run.sh --workload tpcc-deep --seed 3 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary all go under
# .bench_build/ at the repository root, so nothing is written outside
# the checkout. The binary runs from bench/, where its pinned results
# live.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

cd "$bench"
go build -o "$build/memsperf" .
exec "$build/memsperf" "$@"
