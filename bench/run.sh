#!/usr/bin/env bash
# Builds the request-ledger benchmark and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload serve-small --seed 1 --seconds 22 --trace 0
#
# The Go build cache, Go's temporary files, the built binaries and every
# output of a run stay under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
