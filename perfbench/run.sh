#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run it from the
# repository root with the benchmark's flags, for example
#
#   bash perfbench/run.sh --workload study-warm --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root; no NeuroMeter sources in $root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
