#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload moe-step --seed 1 --seconds 20 --trace 0
#
# Build outputs, including Go's build cache, stay inside the checkout
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# The go command keeps telemetry counters under the user config dir;
# point it inside the build directory too.
(cd "$root/perfbench" && HOME=$out/home XDG_CONFIG_HOME=$out/home/.config go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
