#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root; every argument is passed through. The binary and everything the go
# command writes (build cache, work directories, telemetry counters) live
# under .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
