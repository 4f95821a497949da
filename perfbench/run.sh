#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload live-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build and run product
# (compiler cache, binary, span files) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
