#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go build cache, the compiler's
# temporary files, the toolchain's own counters and the binary under
# .bench_build/, traces and the served model under bench/out/.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$dir")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$dir" -o "$build/predtop-bench" .
exec "$build/predtop-bench" -out "$dir/out" "$@"
