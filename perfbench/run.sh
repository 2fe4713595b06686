#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload ht-1k --seed 7 --seconds 15 --trace 0
#
# The binary and every Go cache the build needs live under .bench_build
# at the checkout root, so nothing is read from or written to the user's
# home directory and no module is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
