#!/usr/bin/env bash
# cmp_studies.sh — check that two hyperprof binaries produce byte-identical
# study artifacts. Usage:
#
#   scripts/cmp_studies.sh OLD_BIN NEW_BIN
#
# Runs both binaries on a fixed list of -study invocations, each in a fresh
# directory of its own, and compares the pair's stdout, exit status and every
# file the run wrote (obs-series.json, the -chrome-trace file). Every
# invocation runs, even after one differs, so a re-baseline shows exactly
# which artifacts moved. Exits 1 and lists each invocation that differs;
# exits 0 when every pair matches.
# Fleet runs with -json because its text report prints the coordinator's
# live heap, which varies between runs of one binary.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 OLD_BIN NEW_BIN" >&2
	exit 2
fi
old="$(realpath "$1")"
new="$(realpath "$2")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

invocations=(
	"-study=char"
	"-study=char -seed 7"
	"-study=safety"
	"-study=safety -backend=exec -workers 2"
	"-study=resilience"
	"-study=resilience -obs"
	"-study=resilience -burst -diurnal"
	"-study=obs"
	"-study=overload -json"
	"-study=overload -json -burst -diurnal"
	"-study=partition -check -json"
	"-study=pipeline -check -chrome-trace trace.json"
	"-study=fleet -json -fleet-servers 400 -fleet-users 200000 -fleet-ops 8000"
)

# run BIN DIR ARGS... runs one invocation inside DIR, keeping its stdout and
# exit status there next to any file it writes.
run() {
	local bin="$1" dir="$2"
	shift 2
	mkdir -p "$dir"
	local status=0
	(cd "$dir" && "$bin" "$@" >stdout) || status=$?
	echo "$status" >"$dir/status"
}

differs=()
for i in "${!invocations[@]}"; do
	inv="${invocations[$i]}"
	# Word splitting of $inv is intended: each entry is a flag list.
	# shellcheck disable=SC2086
	run "$old" "$work/$i/old" $inv
	# shellcheck disable=SC2086
	run "$new" "$work/$i/new" $inv
	if ! diff -r -q "$work/$i/old" "$work/$i/new"; then
		echo "cmp_studies: DIFFERS: hyperprof $inv" >&2
		differs+=("$inv")
		continue
	fi
	echo "cmp_studies: identical: hyperprof $inv"
done
if [ ${#differs[@]} -ne 0 ]; then
	echo "cmp_studies: ${#differs[@]} of ${#invocations[@]} invocations differ:" >&2
	for inv in "${differs[@]}"; do
		echo "  hyperprof $inv" >&2
	done
	exit 1
fi
echo "cmp_studies: all ${#invocations[@]} invocations identical"
