#!/bin/sh
# bench.sh — run the substrate microbenchmarks and write the results as a
# small JSON file (BENCH_0.json by default, or $1). Used by `make bench` /
# `make bench-gate` and the CI bench job, so regressions in the DES kernel
# fast path (ns/op and allocs/op) leave a machine-readable trail per commit.
# The JSON records the environment alongside the numbers — go version,
# GOOS/GOARCH, GOMAXPROCS and the commit — so a baseline from one machine is
# never silently compared against a run from another kind of machine.
#
# Usage: bench.sh [OUT [RAW...]]
#
# With RAW files — the saved stdout of earlier bench.sh runs — nothing is run:
# their samples are merged into OUT by the same rule as one run's samples.
#
# Only POSIX sh + awk + the go toolchain; no external dependencies.
set -e

out="${1:-BENCH_0.json}"
benchtime="${BENCHTIME:-100000x}"
# The netsim messageDelay op is ~25ns, so it needs far more iterations than
# the kernel benchmarks before scheduler noise averages out.
# ServerCallDedup (root package) is one deduplicated RPC through a Client,
# a few microseconds; its allocs/op pins the server call's allocations at 0,
# and at this iteration count a dedup record that outlived its call would
# show in B/op. ClientDeadlineCall is the same RPC under a deadline policy,
# with a helper process and a deadline event per attempt; it pins that path
# at 0 allocs/op too.
netbenchtime="${NETBENCHTIME:-1000000x}"
# Each benchmark runs BENCHCOUNT times; the JSON keeps the per-name minimum
# ns/op (the least-interrupted sample — scheduler and frequency noise only
# ever add time) and the maximum B/op and allocs/op (which are deterministic,
# so max == min unless something is actually wrong).
benchcount="${BENCHCOUNT:-6}"
# SimProcSpawn pins the allocations of starting a process and running it to
# exit, which every open-loop arrival pays, at 0; SimQueueHandoff pins a
# blocking queue get at 0. TraceBreakdown pins the §4.1 breakdown of a
# Spanner-sized trace at 0 allocs/op.
kernpattern='^Benchmark(Sim(KernelEvents|KernelSchedule|KernelRun|KernelDenseTimers|KernelDenseTimersHeapOnly|ProcSwitch|ProcSpawn|QueueHandoff)|Stats(SketchRecord|SummaryRecord)|TraceBreakdown)$'
netpattern='^Benchmark(NetMessageDelay|ServerCallDedup|ClientDeadlineCall)$'
pipepattern='^BenchmarkPipelineHandoff$'
# The storage-path benches guard the allocation-lean SSTable seal and
# bootstrap: the encoder into a reused buffer (0 allocs/op), a full BigTable
# bring-up and a full Spanner bring-up. TieredStoreRead guards the store's
# read path: 16,384 reads per op over one Spanner machine's 12,000 rows, at
# 0 allocs/op.
# BigQueryScanAgg guards the query path's dense partial aggregation: one
# ScanAgg query through the columnar kernels and the shuffle.
# SpannerCommit guards the commit path: one fault-free commit and its
# replication round, at 3 allocs/op.
# Each op is milliseconds, so they take few iterations. They run at -cpu 1:
# with one P, fmt's per-P buffer pools hit the same way every run, so
# their allocs/op is exact and the zero-growth gate applies to them.
# STORAGEBENCHCOUNT (default BENCHCOUNT) is their sample count: at 20x a
# BigTableNew sample lasts about a millisecond, so a gate that takes few
# samples of the other rows still needs more of these.
storagepattern='^Benchmark(CompressEncode|BigTableNew|SpannerNew|SpannerCommit|TieredStoreRead|BigQueryScanAgg)$'
storagebenchtime=20x
storagebenchcount="${STORAGEBENCHCOUNT:-$benchcount}"

if [ $# -gt 1 ]; then
	shift
	raw="$(cat "$@")"
else
	raw="$(go test -run '^$' -bench "$kernpattern" -benchmem -benchtime "$benchtime" -count "$benchcount" .)
$(go test -run '^$' -bench "$netpattern" -benchmem -benchtime "$netbenchtime" -count "$benchcount" . ./internal/netsim/)
$(go test -run '^$' -bench "$pipepattern" -benchmem -benchtime "$benchtime" -count "$benchcount" ./internal/workload/)
$(go test -run '^$' -bench "$storagepattern" -benchmem -benchtime "$storagebenchtime" -count "$storagebenchcount" -cpu 1 .)"
	printf '%s\n' "$raw"
fi

goversion="$(go env GOVERSION)"
goos="$(go env GOOS)"
goarch="$(go env GOARCH)"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

printf '%s\n' "$raw" | awk -v out="$out" -v gover="$goversion" \
    -v goos="$goos" -v goarch="$goarch" -v commit="$commit" '
/^Benchmark/ {
    name = $1
    # The -N suffix on a benchmark name is the GOMAXPROCS the run used;
    # go test omits it entirely when GOMAXPROCS is 1.
    procs = name
    if (sub(/.*-/, "", procs) && procs + 0 > 0 && maxprocs == "") maxprocs = procs
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (!(name in minNs)) { order[++n] = name; minNs[name] = ns; maxBytes[name] = bytes; maxAllocs[name] = allocs }
    if (ns != "" && ns + 0 < minNs[name] + 0)          minNs[name] = ns
    if (bytes != "" && bytes + 0 > maxBytes[name] + 0)     maxBytes[name] = bytes
    if (allocs != "" && allocs + 0 > maxAllocs[name] + 0)  maxAllocs[name] = allocs
}
END {
    if (maxprocs == "") maxprocs = 1
    printf "{\n  \"go\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n", gover, goos, goarch > out
    printf "  \"gomaxprocs\": %s,\n  \"commit\": \"%s\",\n  \"benchmarks\": [\n", maxprocs, commit >> out
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
               name, minNs[name] == "" ? "null" : minNs[name],
               maxBytes[name] == "" ? "null" : maxBytes[name],
               maxAllocs[name] == "" ? "null" : maxAllocs[name],
               (i < n ? "," : "") >> out
    }
    printf "  ]\n}\n" >> out
}'

echo "wrote $out"
