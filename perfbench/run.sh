#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload replay-smarthome --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache and module cache are pointed there too, so nothing
# outside the checkout is written.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
