#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository; arguments go to the benchmark, for example
#
#	bash stpbench/run.sh --workload mc-explore --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in .bench_build at the root, so
# nothing is written outside the checkout. The benchmark is its own Go
# module whose go.mod points at the repository root; without the
# repository around it the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/stpbench" && go build -o "$out/stpbench" .)
exec "$out/stpbench" "$@"
