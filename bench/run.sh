#!/bin/bash
# Entry point named in BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark (a Go module of its own under bench/, which
# replaces `prompt` with the repository around it) and runs it. Every
# file the Go toolchain and the benchmark write — build cache, temp
# files, binaries, socket directories — stays under .bench_build/ at the
# root of the checkout; traces go to bench/out/.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/bin/bench" .
# The work directory is passed as a short relative path: unix socket
# addresses are limited to about 100 bytes.
exec "$build/bin/bench" -work ../.bench_build "$@"
