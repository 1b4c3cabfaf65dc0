#!/usr/bin/env bash
# Builds dxserver and the dxbench load generator from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash dxbench/run.sh --workload cold-query --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/dxbench" && go build -o "$out/dxbench" . && go build -o "$out/dxserver" repro/cmd/dxserver) >&2
exec "$out/dxbench" -server "$out/dxserver" -work "$out/work" "$@"
