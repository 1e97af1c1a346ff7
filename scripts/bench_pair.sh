#!/bin/sh
# bench_pair.sh — the paired regression gate over the substrate
# microbenchmarks: the change against its parent commit, measured on the same
# machine, minutes apart.
#
# Usage: bench_pair.sh PARENT_DIR [OUT_DIR]
#
# PARENT_DIR is a checkout of the parent commit (CI adds it with
# `git worktree add`). The script runs scripts/bench.sh six times on each
# side — the parent's own bench.sh in PARENT_DIR, this checkout's in the
# current directory — and alternates which side goes first each round, so
# drift on a shared runner lands on both sides. Each run takes two samples
# per benchmark, so a side gets twice the samples of one default bench.sh
# run. Six rounds rather than three: parent-vs-parent on a shared 2-vCPU VM,
# three rounds failed 4 of 6 gates and six rounds 7 of 20, most often on the
# shortest kernel samples. So the kernel and pipeline benchmarks run
# BENCHTIME=1000000x on both sides (bench.sh defaults to 100000x): the
# shortest sample, StatsSummaryRecord at 20-40 ns/op on that VM, lasts
# 20-40 ms rather than 2-4 ms. Parent-vs-parent with it failed 1 of 10 runs,
# on BenchmarkSpannerNew (+25%), a 20x storage sample BENCHTIME does not
# set. So the storage benchmarks take STORAGEBENCHCOUNT=4 samples per run,
# 24 per side, still at 20x each: longer samples would change what a row
# measures. Parent-vs-parent with both, 10 runs of 120-145 s on the same
# VM: SpannerNew never failed; 4 runs did, 2 on BigTableNew (+67%, +69%),
# whose samples are bimodal per process (about 45 or 80 us/op), and 2 on
# kernel rows (+28%, +30%). 8 samples per run failed 5 of 10, 1 on
# BigTableNew.
# Each run's output goes to OUT_DIR (default bench-pair/) as parent-N.txt /
# change-N.txt, beside its JSON; bench.sh then merges a side's runs into
# parent.json / change.json by its own rule, and
# `bench_diff.sh --fail parent.json change.json` applies the usual gate:
# ns/op may not grow beyond the band, allocs/op may not grow at all.
# BENCH_0.json is not read; it stays the soft reference of `make bench`.
#
# Only POSIX sh + awk + the go toolchain; no external dependencies.
set -e

parent="${1:?usage: bench_pair.sh PARENT_DIR [OUT_DIR]}"
out="${2:-bench-pair}"
BENCHCOUNT=2
BENCHTIME=1000000x
STORAGEBENCHCOUNT=4
export BENCHCOUNT BENCHTIME STORAGEBENCHCOUNT

here="$(pwd)"
parent="$(cd "$parent" && pwd)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

for r in 1 2 3 4 5 6; do
	if [ $((r % 2)) -eq 0 ]; then order="change parent"; else order="parent change"; fi
	for side in $order; do
		echo "== bench_pair: round $r, $side"
		if [ "$side" = parent ]; then
			(cd "$parent" && sh scripts/bench.sh "$out/parent-$r.json") >"$out/parent-$r.txt"
		else
			sh scripts/bench.sh "$out/change-$r.json" >"$out/change-$r.txt"
		fi
		cat "$out/$side-$r.txt"
	done
done

# Merge each side in its own checkout, so its JSON names its own commit.
(cd "$parent" && sh "$here/scripts/bench.sh" "$out/parent.json" "$out"/parent-?.txt)
sh scripts/bench.sh "$out/change.json" "$out"/change-?.txt
sh scripts/bench_diff.sh --fail "$out/parent.json" "$out/change.json"
