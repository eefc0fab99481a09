#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-heavy --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                       # every workload, both passes
#   bash bench/run.sh compare base.jsonl new.jsonl
#
# The build cache lives in .bench_build/ too, so a run reads and writes
# nothing outside the checkout but the Go toolchain itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C bench build -o "$out/desbench" .
exec "$out/desbench" "$@"
