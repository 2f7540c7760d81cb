#!/usr/bin/env bash
# Builds the benchmark from source and runs it from its own directory:
#
#   bash e2ebench/run.sh --workload rand50-abilene-zoo --seed 1 --seconds 45 --trace 0
#
# Build outputs (the binary and a private Go build cache) go under
# .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
