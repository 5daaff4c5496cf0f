#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload sweep-hotpotato --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, binary, trace files, fabric archives) stays under $CARGO_TARGET_DIR,
# default .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config HOME=$build/home
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
mkdir -p "$HOME" "$XDG_CONFIG_HOME"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -out "$build" "$@"
