#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; every argument passes through, e.g.
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and per-run scratch files all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/blast" ] || [ ! -d "$root/cmd" ]; then
    echo "perfbench: run from the repository root: go.mod, blast/ and cmd/ must be here" >&2
    exit 2
fi
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
mkdir -p "$GOCACHE" "$GOTMPDIR" "$root/.bench_build/bin"
(cd "$root/perfbench" && go build -o "$root/.bench_build/bin/perfbench" .)
exec "$root/.bench_build/bin/perfbench" "$@"
