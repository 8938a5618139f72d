#!/usr/bin/env bash
# Build the benchmark from source and run it. BENCHMARK.json names this
# script as its command; everything it writes (Go build cache included)
# lands in .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/d2dhb-bench" .) >&2
exec "$out/d2dhb-bench" "$@"
