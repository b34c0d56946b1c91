#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument is passed on (--workload, --seed, --seconds, --trace).
# Everything it writes — build cache, binary, data dirs, span dumps —
# goes under the build directory inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --work "$build/perfbench" "$@"
