#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8_eagle127 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the stores' scratch files all live under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -tmp "$build/tmp" "$@"
