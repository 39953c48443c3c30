#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload wan3 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, snapshot
# stores and span dumps all live under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}"
export GOCACHE="${root}/.bench_build/gocache"
export GOMODCACHE="${root}/.bench_build/gomodcache"
export GOPATH="${root}/.bench_build/gopath"
export XDG_CONFIG_HOME="${root}/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "${root}/perfbench" -o "${out}/perfbench" .
exec "${out}/perfbench" -out "${out}" "$@"
