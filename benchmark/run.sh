#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# source and runs it with the given arguments. Everything it writes (Go build
# cache, binaries, temp heaps, spans.jsonl) stays under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gopath" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
