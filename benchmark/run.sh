#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the root of that tree:
#
#   bash benchmark/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
# Keep the Go toolchain's caches and state inside the tree, and never
# let it reach for a network or a different toolchain.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
go -C benchmark build -o "$out/benchmark" .
commit=unknown
if [ -d .git ]; then
	commit=$(GIT_DIR=.git git rev-parse HEAD 2>/dev/null || echo unknown)
fi
digest=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
BENCH_COMMIT=$commit BENCH_SOURCE_DIGEST=$digest exec "$out/benchmark" "$@"
