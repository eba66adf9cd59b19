#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it from the
# repository root; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 30 --trace 0
# The Go build cache, the go command's config and telemetry, and all
# temporary files (artifact stores, spill files) stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
