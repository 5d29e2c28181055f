#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Everything the Go toolchain writes (build cache, temp files, binaries)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
# The go command keeps its env file and telemetry counters in the user's
# config directory; give it one in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/soda-benchmark" .)
cd "$root"
exec "$out/soda-benchmark" "$@"
