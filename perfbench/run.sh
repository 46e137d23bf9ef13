#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload hit_mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench
# in the checkout: the Go build cache, the binary and the traced runs' spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
