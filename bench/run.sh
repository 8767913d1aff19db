#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# BENCHMARK.json's command is `bash bench/run.sh`; the driver appends
# --workload, --seed, --seconds and --trace. The Go build cache and the
# binary live under .bench_build/ in the checkout, so nothing outside it is
# read or written and the first run pays for the build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
