#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it. Run it from the
# repository root; every file it writes (Go build cache, binary, traces)
# stays under .bench_build/ there. Flags pass through, for example:
#
#   bash bench/run.sh --workload besteffort-1b --seed 1 --seconds 12 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache/go-build" GOMODCACHE="$out/cache/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$out/escort-bench-host" .
exec "$out/escort-bench-host" "$@"
