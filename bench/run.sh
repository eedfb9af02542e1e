#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from the checkout's source and
# run it with the arguments given. Everything the Go toolchain writes — build
# cache, temporary files, its usage counters (XDG_CONFIG_HOME), the binary —
# stays under .bench_build in the checkout, so a run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
cd "$root/bench" # a module of its own; traces land in bench/out
go build -o "$build/ultrabench" .
exec "$build/ultrabench" "$@"
