#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload zoo-eval --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh repeat --workload synth1k-plan --runs 5
#
# Run from the repository root. Build outputs, the Go build cache and
# temporary files all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a pcf source tree (go.mod, internal/, perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
