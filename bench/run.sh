#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and
# runs it. Every file the build writes (binary, Go build cache, temp
# files, the go command's own state) goes under .bench_build/ at the
# checkout root.
#
#   bash bench/run.sh --workload fleet-day --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A.json B.json
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
# GOPATH and XDG_CONFIG_HOME keep the go command's module cache, user
# settings and telemetry counters out of the home directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

go build -C "$bench" -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
