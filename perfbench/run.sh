#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash perfbench/run.sh --workload cv-short --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the run state all live in .bench_build
# under the root, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --state "$out/state" "$@"
