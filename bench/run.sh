#!/bin/sh
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the repository root:
#
#   sh bench/run.sh --workload rack-churn --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the repository root; no module is downloaded.
set -eu
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp"
export XDG_CONFIG_HOME="$b/config" XDG_CACHE_HOME="$b/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$b/bench" .)
exec "$b/bench" "$@"
