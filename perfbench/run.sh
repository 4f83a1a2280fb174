#!/bin/sh
# Builds the wrapper and mediator binaries and the perfbench command from
# the checkout's sources, then runs perfbench with the given arguments:
#
#	sh perfbench/run.sh --workload paper_mix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build output, cache and run file
# stays under .bench_build in that directory.
set -eu
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/bin/" ./cmd/o2-wrapper ./cmd/xmlwais-wrapper ./cmd/feed-wrapper ./cmd/yat-mediator
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
