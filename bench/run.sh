#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument
# goes to the bench binary (see bench/README.md). The go tool's caches,
# temporary files and telemetry counters stay under .bench_build/ in the
# checkout (buildBinaries in children.go sets the same variables).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -buildvcs=false -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
