#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout (Go's caches are kept there too, so nothing
# outside the checkout is written) and runs it with the driver's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/parsearch-bench" .
exec "$build/parsearch-bench" -tmp "$build/tmp" "$@"
