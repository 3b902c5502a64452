#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run from the root
# of a checkout:
#
#	bash perfbench/run.sh --workload layout-dm --seed 1 --seconds 25 --trace 0
#
# Every build output (binary, Go build cache) goes under .bench_build in
# the checkout; nothing is read or written outside it except the Go
# toolchain itself.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
