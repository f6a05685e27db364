#!/usr/bin/env bash
# Build siptperf from this checkout's sources and run it from the
# repository root, passing every argument through. Build products, the
# Go build cache and temporary files stay under .bench_build/ at the
# root; the build log goes to stderr so standard output is the
# benchmark's own.
#
# Usage: bash bench/siptperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build=${root}/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/bench/siptperf" && go build -o "$build/siptperf" .) >&2
cd "$root"
exec "$build/siptperf" "$@"
