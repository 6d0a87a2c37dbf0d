#!/bin/sh
# The command of BENCHMARK.json: builds the benchmark from source and runs
# it, from the module root. It is `go run ./bench` with the go command's
# build cache and temporary files kept inside the checkout (.bench_build/),
# because the driver's runs may write nowhere else, and with the program
# run in place of the shell, so a signal reaches it and no process is left.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
