#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout and runs it with the driver's arguments. Everything the go
# command writes (compiler cache, link scratch, its own settings and usage
# counters) and the binary go under .bench_build/ at the root of the
# checkout, so nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
