#!/usr/bin/env bash
# Builds the flow benchmark from source and runs it; arguments pass through
# (--workload NAME --seed N --seconds S --trace 0|1). Every build and run
# artifact stays inside the checkout: the binary and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), traces and scratch state
# under .flowbench. Without the program's sources beside it the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/flowbench" && go build -o "$build/flowbench" .)
cd "$root"
exec "$build/flowbench" "$@"
