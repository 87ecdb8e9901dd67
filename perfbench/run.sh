#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload commit-uniform --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build output, Go caches, WAL files,
# spans and profiles all stay under .bench_build/ there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry and settings under the home directory.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
