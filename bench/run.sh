#!/usr/bin/env bash
# Builds the benchmark and the rmd daemon from the source of this
# checkout, then runs the benchmark with the given arguments. Every
# file the Go toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build in the checkout.
#
#   bash bench/run.sh --workload legacy-contended --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                # every workload, 3 repetitions each
#   bash bench/run.sh --trace 1      # the traced run of every workload
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/rmd" ./cmd/rmd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -rmd "$out/rmd" -tmp "$out/gotmp" "$@"
