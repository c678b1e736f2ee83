#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash benchmark/run.sh --workload served-point --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build and module caches, traces) go to $CARGO_TARGET_DIR,
# default .bench_build, so the benchmark writes nothing outside the
# checkout it runs in.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own files (its env file and
# telemetry counters) in the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/benchmark" build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
