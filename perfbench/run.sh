#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload am-shared --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the benchmark binary and the span
# files of traced runs. The last line of standard output is the result.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-out "$out/traces" "$@"
