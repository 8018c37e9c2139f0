#!/usr/bin/env bash
# Builds the benchmark against the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 45 --trace 0
#
# Build cache, binary, WALs and spans all stay under .bench_build/ at
# the checkout root; nothing is downloaded.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
