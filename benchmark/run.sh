#!/usr/bin/env bash
# Builds the benchmark program from source into <checkout>/.bench_build and
# runs it with the given arguments. Everything the build writes (binary,
# Go build cache) stays inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/satori-bench" .
exec "$build/satori-bench" "$@"
