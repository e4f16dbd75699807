#!/usr/bin/env bash
# Builds cmd/tv, cmd/tvd and the benchmark program from the checkout in the
# current directory, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload signoff|eco|restart --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, GOPATH, the go command's temporary files and its own
# config directory included.
set -euo pipefail
root=$(pwd)
cache="$root/.bench_build"
out="$cache/perfbench"
mkdir -p "$out" "$cache/tmp"
export GOCACHE="$cache/gocache" GOPATH="$cache/gopath" XDG_CONFIG_HOME="$cache/config" \
	GOTMPDIR="$cache/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/tv" ./cmd/tv
go build -o "$out/tvd" ./cmd/tvd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out" -work "$out/work" "$@"
