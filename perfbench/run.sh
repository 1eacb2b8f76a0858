#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload alltoall-offload --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's local telemetry counters) stays under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
