#!/usr/bin/env bash
# Builds the benchmark from source inside the current directory (the root
# of a checkout) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload jacobi-checked --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ so nothing is
# written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
