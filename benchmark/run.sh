#!/usr/bin/env bash
# Builds ftmr-perf from source and runs it with the arguments given, from the
# root of a checkout:
#
#   bash benchmark/run.sh --workload wc-scale --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, build cache, temporary and telemetry
# files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/ftmr-perf" ./cmd/ftmr-perf
exec "$build/ftmr-perf" "$@"
