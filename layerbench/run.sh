#!/usr/bin/env bash
# Builds the layer-ledger benchmark from the sources in this checkout and
# runs it with the given arguments. Run it from the repository root:
#
#   bash layerbench/run.sh --workload metro-day --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd layerbench && go build -o "$out/layerbench" .)
exec "$out/layerbench" "$@"
