#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload pair-4k --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traced
# profiles) stays under .bench_build/ at the repository root.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build/go"
mkdir -p "$build"

export GOCACHE="$build/cache" GOMODCACHE="$build/modcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/xdg-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$bench_dir" && go build -o "$build/shrimpbench" .)
exec "$build/shrimpbench" -out "$build/trace" "$@"
