#!/usr/bin/env bash
# allocs.sh — the allocation profile of one study at the benchmark's sizes.
# Usage, from a checkout root:
#
#   scripts/allocs.sh STUDY
#   make allocs STUDY=fleet
#
# Builds hyperprof from the current checkout into a temporary directory, runs
# `-study=STUDY -memprofile` under GODEBUG=memprofilerate=1 (every allocation
# sampled, so the counts are exact) and prints the top 40 sites of
# `go tool pprof -sample_index=alloc_objects -top`. fleet runs at the bench
# workload's size (500 servers, 250,000 users, 20,000 ops); the other studies
# at their defaults, which are the bench's.
# Diagnostic only: nothing gates on the output.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 STUDY" >&2
	exit 2
fi
study="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/hyperprof" ./cmd/hyperprof
sizes=()
if [ "$study" = fleet ]; then
	sizes=(-fleet-servers 500 -fleet-users 250000 -fleet-ops 20000)
fi
GODEBUG=memprofilerate=1 "$work/hyperprof" -study="$study" "${sizes[@]}" \
	-memprofile "$work/mem.prof" >/dev/null
go tool pprof -sample_index=alloc_objects -nodecount=40 -top \
	"$work/hyperprof" "$work/mem.prof"
