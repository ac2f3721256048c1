#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps everything the Go toolchain
# writes (build cache, temp files, module cache, its telemetry counters,
# the benchmark binary) inside the checkout, then runs the benchmark from
# the caller's directory with the arguments it was given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOFLAGS=-modcacherw
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
