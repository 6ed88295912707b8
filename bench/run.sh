#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see bench/README.md). Run from the repository root:
#
#   bash bench/run.sh --workload lp-recon --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all
# live under .bench_build/ in the current directory, so nothing is read or
# written outside the checkout except the Go toolchain itself. A tree that
# lacks the repository's sources fails the build and exits non-zero
# without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/bench" .
exec "$out/bench" -build-dir "$out" "$@"
