#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-batch --seed 2010 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout. The toolchain is pinned to the local one and the module proxy is
# off, so the build never reaches the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# With telemetry on or local, a go command starts a detached process once a
# day to build telemetry reports; turned off, the build starts none. Go
# releases before 1.23 have no telemetry and no such command.
go telemetry off 2>/dev/null || true
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
