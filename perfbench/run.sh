#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload warm-gp --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build artifact, cache and result stays
# under the root's .bench_build/ and .perfbench/ directories.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build/perfbench"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config" XDG_CACHE_HOME="${build}/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
