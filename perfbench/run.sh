#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1993 --seconds 40 --trace 0
#
# The build and every Go tool state (build cache, module cache, config,
# temp files) stay under .bench_build in the current directory; outputs go
# to .bench_out. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
