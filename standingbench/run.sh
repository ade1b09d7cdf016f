#!/usr/bin/env bash
# Builds the standing benchmark from the enclosing checkout and runs it.
#
#   bash standingbench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write lands under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/standingbench" .)
cd "$root"
exec "$out/standingbench" -workdir "$out" "$@"
