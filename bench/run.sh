#!/usr/bin/env bash
# The benchmark's command: build the benchmark program from source and
# run it. Invoked from the root of a checkout as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, module cache and temporary files go under
# .bench_build/, the spans and reports under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local # never download a toolchain
export GOWORK=off

# bench/ is a module of its own that replaces module fmi with the
# checkout around it; without that checkout the build fails and the
# script exits non-zero without a result.
(cd "$here" && go build -o "$build/fmi-bench" .)

cd "$root"
exec "$build/fmi-bench" -out bench/out "$@"
