#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source into
# .bench_build/ (the one directory .gitignore lists) and run it from the
# repository root. Everything the build writes — Go's build cache
# included — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/qtbench" .)
cd "$root"
exec "$out/qtbench" "$@"
