#!/usr/bin/env bash
# The driver's entry point: builds the benchmark and runs it with the Go build
# cache inside the checkout, so that a run writes nothing outside it.
#   bash benchmark/run.sh --workload cold_single --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C "$root/benchmark" -o "$root/.bench_build/bin/benchmark" .
cd "$root"
exec "$root/.bench_build/bin/benchmark" "$@"
