#!/usr/bin/env bash
# Builds gorderd and the benchmark from source, then runs one benchmark
# run. Run from the repository root:
#
#   bash perfbench/run.sh --workload query-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, temporary files, the
# binaries, and each run's fresh gorderd data directories.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gorderd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, cmd/gorderd and perfbench/)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off

go build -o "$out/gorderd" ./cmd/gorderd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --gorderd "$out/gorderd" --work "$out" "$@"
