#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root: bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1|FILE] [-aa N]
# The binary stays under .bench_build, as do Go's build cache and (through
# XDG_CONFIG_HOME) the go command's own settings; the benchmark's files
# (stores, spans, A/A report) go under benchmark/out.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$PWD/$build
# With a fresh config directory the go command forks a detached telemetry
# child that outlives it; mode "off" keeps every go run to one process tree
# that has ended when go returns.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE=$build/gocache XDG_CONFIG_HOME=$build/config go build -o "$build/aion-benchmark" ./benchmark
exec "$build/aion-benchmark" "$@"
