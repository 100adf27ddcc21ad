#!/usr/bin/env bash
# Builds the wlbench benchmark from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash wlbench/run.sh --workload spec_lifetime --seed 7 --seconds 20 --trace 0
#
# The binary, the Go build cache and the serve workload's store all live
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C wlbench build -buildvcs=false -o "$out/wlbench" .
exec "$out/wlbench" -workdir "$out" "$@"
