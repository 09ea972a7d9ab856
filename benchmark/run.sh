#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# Everything it writes — Go's build cache, the binary, and through TMPDIR the
# WAL scratch files and the span file — stays under .bench_build/ in the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$here" -buildvcs=false -o "$out/twm-benchmark" . >&2
exec "$out/twm-benchmark" "$@"
