#!/usr/bin/env bash
# Builds the secperf benchmark from source and runs it; every argument is
# passed on. Run from the repository root:
#
#   bash secperf/run.sh --workload synthetic-scale --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the workloads' temporary directories
# all live under .bench_build/ in the working directory, and the toolchain
# is kept offline (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

# The standard install location, for environments that leave it off PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/secperf" && go build -o "$build/secperf" .)
exec "$build/secperf" --root "$root" "$@"
