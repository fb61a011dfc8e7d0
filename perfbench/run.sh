#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload eval-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the benchmark's scratch state stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
