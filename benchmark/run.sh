#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, never $HOME or /tmp)
# and runs it. Every argument goes to the program:
#
#   bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# In a directory without the repository around it the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/wetune-benchmark" .
exec "$build/wetune-benchmark" "$@"
