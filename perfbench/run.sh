#!/usr/bin/env bash
# Builds the benchmark and cabd-serve from this checkout's sources into
# .bench_build/ and runs one benchmark workload. Run it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload serve-short --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/: the
# Go build cache, temporary files and the go command's own config and
# telemetry directory included.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
go -C "$here" build -o "$out/perfbench" .
go -C "$here" build -o "$out/cabd-serve" cabd/cmd/cabd-serve
exec "$out/perfbench" -root "$root" -serve-bin "$out/cabd-serve" -work-dir "$out" "$@"
