#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash _perfbench/run.sh --workload nudma-rx --seed 1 --seconds 16 --trace 0
#
# The last line of standard output is the JSON result; build output and
# per-repetition progress go to standard error. Everything the build and
# the traced run write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
