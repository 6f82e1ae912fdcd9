#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload live-interp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so the Go build cache
# and toolchain state never leave the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/home" "$build/tmp"

(
	cd perfbench
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$build/bin/perfbench" .
) >&2

exec "$build/bin/perfbench" --state "$build/state" "$@"
