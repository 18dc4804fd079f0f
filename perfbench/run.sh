#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# stream workload's trace files all live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/perfbench"

export GOCACHE=$build/perfbench/gocache
export GOMODCACHE=$build/perfbench/gomodcache
export GOPATH=$build/perfbench/gopath
export XDG_CONFIG_HOME=$build/perfbench/config
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" -work "$build/perfbench/work" "$@"
