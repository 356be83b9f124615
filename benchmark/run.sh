#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Every file
# the build, the Go toolchain and the run write stays under .bench_build.
# Arguments go to the benchmark, e.g.
#
#   bash benchmark/run.sh -workload paper-smoke -seed 1 -seconds 30 -trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The module has no dependencies: never reach for a proxy or a toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C benchmark build -buildvcs=false -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
