#!/usr/bin/env bash
# Builds the study benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh                                  # full set, all workloads
#   bash bench/run.sh -workload char -seconds 15       # one workload, time-boxed
#   bash bench/run.sh -compare a.json b.json           # parent vs change
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory: the build cache, the binary, and
# result files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd bench
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -buildvcs=false -o "$out/hpbench" .
)
exec "$out/hpbench" "$@"
