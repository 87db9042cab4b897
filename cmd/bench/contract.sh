#!/bin/bash
# What BENCHMARK.json's command runs: builds cmd/bench from source inside
# the checkout, build cache included, and runs it with the driver's flags
# (--workload NAME --seed N --seconds N --trace 0|1). Nothing is written
# outside the checkout's .bench_build directory.
set -e
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./cmd/bench
exec .bench_build/bench "$@"
