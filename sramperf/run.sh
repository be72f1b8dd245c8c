#!/usr/bin/env bash
# Builds the sramperf benchmark from the source tree it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash sramperf/run.sh --workload search-plain --seed 1 --seconds 16 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain state) stays
# under .bench_build/ in the current directory. Outside a full checkout the
# module replace of ../ fails, so the build and this script exit non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config"

(cd "$root/sramperf" && go build -o "$out/sramperf" .)
exec "$out/sramperf" "$@"
