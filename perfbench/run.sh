#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything the build writes (Go build
# cache, telemetry, the binary, run scratch) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
