#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper_cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ in the working directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
