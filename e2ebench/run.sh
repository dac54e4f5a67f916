#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload evolve --seed 1 --seconds 20 --trace 0
#
# The build, the Go build cache and traced runs' span files go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"

# The go command's caches, temporary files and its config directory (where
# it keeps telemetry counters) all live in the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
