#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload episodes --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, module and
# config directories) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
