#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash igbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory; the Go toolchain is kept offline and local.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/igbench" && go build -o "$out/bin/igbench" .)
IGBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
export IGBENCH_COMMIT
exec "$out/bin/igbench" "$@"
