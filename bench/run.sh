#!/usr/bin/env bash
# Builds the benchmark and remserve from this checkout's sources, then
# runs one benchmark invocation with the given arguments:
#
#   bash bench/run.sh --workload fleet_4k --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, tool
# configuration) stays under .bench_build/ in the checkout, and the
# toolchain never goes to the network. A checkout without the
# repository's sources fails the build and exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

cd "$root/bench"
go build -o "$out/bin/bench" .
go build -o "$out/bin/remserve" rem/cmd/remserve
cd "$root"
exec "$out/bin/bench" -remserve "$out/bin/remserve" -trace-dir "$out/trace" "$@"
