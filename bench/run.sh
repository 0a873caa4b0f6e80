#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it): build the
# harness from this checkout's source and run it with the arguments
# given. Everything the go tool and the harness write stays inside the
# checkout, under .bench_build/ (the build cache included), so a
# checkout measures its own source and leaves nothing outside itself.
#
#   bash bench/run.sh --workload point_wire --seed 7 --seconds 12 --trace 0
#
# `go run ./bench <same arguments>` is the same program with the go
# tool's default cache locations.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
go build -o .bench_build/auditbench ./bench
exec .bench_build/auditbench "$@"
