#!/usr/bin/env bash
# Builds the benchmark and the program under test from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-bulk --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1                      # all three workloads
#   bash bench/run.sh -runs 3 -out a.json           # medians and quartiles
#   bash bench/run.sh -compare a.json b.json
#
# Everything the toolchain and the benchmark write stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$out/friendseeker" ./cmd/friendseeker
(cd bench && go build -o "$out/bench" .)

exec "$out/bench" -build-dir "$out" "$@"
