GO ?= go

# The safety entry of check-studies sweeps this many fault-injected seeds per
# platform through the torture harness (linearizability + invariant checking
# under chaos).
SAFETY_SEEDS ?= 20

# The backends entry tortures this many fault-injected seeds per platform
# through the exec backend's worker subprocesses end to end.
BACKEND_SEEDS ?= 8

# The partition entry sweeps this many nemesis seeds per platform through the
# naive and hardened arms of the partition study.
PARTITION_SEEDS ?= 8

# The pipeline entry tortures this many fault-injected seeds through the
# cross-platform pipeline study's faulted arms.
PIPELINE_SEEDS ?= 4

# The fleet entry runs the fleet-scale characterization at this reduced size
# (the full 2000-server/1M-user run lives in the test suite) and fails if the
# coordinator's live heap after the run exceeds the ceiling.
FLEET_SERVERS ?= 400
FLEET_USERS ?= 200000
FLEET_OPS ?= 8000
FLEET_HEAP_MB ?= 128

# go test -run matches one pattern per test level, splitting at each slash:
# 'TestFoo|TestStudyConformance/obs' runs TestFoo (it has no subtests) and only
# the obs subtest of TestStudyConformance. A pattern that matches nothing
# passes with "no tests to run", so keep these in step with the test names.

.PHONY: check build vet fmt test race fuzz check-studies bench bench-gate bench-baseline allocs

check: build vet fmt race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# fuzz runs each fuzz target for FUZZTIME beyond its seed corpus (go test
# -fuzz takes one target in one package per run). A failing input is written
# under the package's testdata/fuzz/ and replays in every later go test.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	FuzzTieredStoreLoad:./internal/storage/ \
	FuzzSlotIndex:./internal/storage/ \
	FuzzReadFrame:./internal/dispatch/ \
	FuzzStudyArgs:./cmd/hyperprof/ \
	FuzzNemesisSchedule:./internal/faults/ \
	FuzzRowKeyOrder:./internal/bigtable/ \
	FuzzGroupsReuse:./internal/columnar/ \
	FuzzRunUnit:./internal/experiments/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== fuzz: $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) "$$pkg"; \
	done

# check-studies proves each study end to end: per entry of STUDIES, the unit
# and conformance tests of the planes the study stands on, then a -study= run
# that emits the study's artifacts. Within an entry the commands stop at the
# first failure; the loop always runs every entry, then names the failed ones
# and exits non-zero.
STUDIES = safety obs overload backends partition fleet pipeline limits

# safety: the torture harness at SAFETY_SEEDS seeds per platform.
STUDY_safety = $(GO) run ./cmd/hyperprof -study=safety -check-seeds $(SAFETY_SEEDS)

# obs: unit tests with zero-allocation assertions on the metric record paths,
# the obs conformance subtest (byte-identical sequential vs parallel export),
# and a -study=obs run emitting the JSON time series and Chrome counter
# tracks.
STUDY_obs = $(GO) test ./internal/obs/ ./internal/trace/ && \
	$(GO) test ./internal/experiments/ -run 'TestStudyConformance/obs' && \
	$(GO) run ./cmd/hyperprof -study=obs -spanner 200 -bigtable 200 -bigquery 30 \
		-obs-out obs-series.json -chrome-trace obs-trace.json

# overload: the admission, retry budget, circuit breaker and tenant QoS unit
# tests (including the retry-storm metastability reproduction) in netsim plus
# the trigger scenarios in faults, the overload study's shape test and
# conformance subtest (byte-identical sequential, parallel and exec), and a
# -study=overload run emitting the JSON report.
STUDY_overload = $(GO) test ./internal/netsim/ ./internal/faults/ ./internal/workload/ && \
	$(GO) test -race ./internal/netsim/ -run 'TestRetryStormMetastability|TestOverloadRunDeterministic' && \
	$(GO) test ./internal/experiments/ -run 'TestOverloadStudy|TestStudyConformance/overload' && \
	$(GO) run ./cmd/hyperprof -study=overload -json > overload.json

# backends: the dispatch protocol and crash/timeout/retry tests, the
# byte-for-byte conformance test (every study sequential vs parallel, every
# remotable one also on exec), the backend and work-unit rejection tests, and
# a safety torture through real `hyperprof -worker` subprocesses.
STUDY_backends = $(GO) test ./internal/dispatch/ && \
	$(GO) test ./internal/experiments/ -run 'TestStudyConformance|Backend|ExecWorker|RunUnit' && \
	$(GO) run ./cmd/hyperprof -study=safety -check-seeds $(BACKEND_SEEDS) -backend=exec -workers 2

# partition: the per-link fault plane and clock-model unit tests (including
# the zero-allocation messageDelay guard), the nemesis schedule
# pairing/determinism property tests, the multi-seed safety-under-partition
# study tests with broken-knob conviction and the partition conformance
# subtest at -short, and a -study=partition -check sweep (nonzero exit on any
# violation outside the broken demonstration arms, or when a broken arm is
# not convicted) emitting the JSON report.
STUDY_partition = $(GO) test ./internal/netsim/ ./internal/sim/ ./internal/check/ && \
	$(GO) test -short ./internal/faults/ -run 'TestNemesis|TestSkippedUnknownTarget' && \
	$(GO) test -short ./internal/experiments/ -run 'TestPartitionStudy|TestRenderPartition|TestStudyConformance/partition' && \
	$(GO) run ./cmd/hyperprof -study=partition -check -check-seeds $(PARTITION_SEEDS) -json > partition.json

# fleet: the quantile-sketch accuracy/merge property tests, the
# reservoir-sampling soundness tests, the fleet conformance subtest
# (sketch-mode bytes identical sequential, parallel and on exec workers; a
# different seed must differ), the flat-heap unit test, and a reduced fleet
# characterization under a runtime.ReadMemStats heap ceiling.
STUDY_fleet = $(GO) test ./internal/stats/ ./internal/check/ ./internal/workload/ && \
	$(GO) test ./internal/experiments/ -run 'TestFleetSketchHeapFlat|TestFleetScaleExactMode|TestStudyConformance/fleet' && \
	$(GO) run ./cmd/hyperprof -study=fleet -fleet-servers $(FLEET_SERVERS) -fleet-users $(FLEET_USERS) \
		-fleet-ops $(FLEET_OPS) -fleet-heap-mb $(FLEET_HEAP_MB)

# pipeline: the pipeline conformance subtest (byte-identical sequential,
# parallel and exec), the end-to-end span and stage-crash exactly-once
# regressions with the broken-handoff fixture convicted, the handoff ledger's
# 0-alloc hot-path pin, and a -study=pipeline -check run (nonzero exit on any
# honest-arm violation, or when a broken arm is not convicted) emitting the
# Chrome export whose spans cross all three platform processes.
STUDY_pipeline = $(GO) test -short ./internal/experiments/ -run 'TestPipeline|TestStudyConformance/pipeline' && \
	$(GO) test ./internal/workload/ -run TestClosedLoopShapeDeterministicAndDistinct \
		-bench BenchmarkPipelineHandoff -benchtime 100000x -benchmem && \
	$(GO) run ./cmd/hyperprof -study=pipeline -check -check-seeds $(PIPELINE_SEEDS) \
		-chrome-trace pipeline-trace.json

# limits: the analytical model and SoC unit tests, then the §6 limit studies
# (Figures 9, 10 and 13–15) and the Table 8 validation, each with its §6.4
# extensions.
STUDY_limits = $(GO) test ./internal/model/ ./internal/soc/ && \
	$(GO) run ./cmd/hyperprof -study=limits -extended && \
	$(GO) run ./cmd/hyperprof -study=table8 -extended

check-studies:
	@failed=""; \
	$(foreach s,$(STUDIES),echo "== check-studies: $(s)"; (set -x; $(STUDY_$(s))) || failed="$$failed $(s)";) \
	if [ -n "$$failed" ]; then echo "check-studies: failed:$$failed" >&2; exit 1; fi

# bench runs the DES-kernel substrate microbenchmarks into BENCH_1.json and
# diffs the result against the committed BENCH_0.json baseline — a soft gate
# that warns on ns/op growth beyond the noise band (see scripts/bench_diff.sh)
# or any allocs/op growth, without failing the build. Refresh the baseline
# with bench-baseline after an intentional substrate change and commit the
# new BENCH_0.json.
bench:
	sh scripts/bench.sh BENCH_1.json
	sh scripts/bench_diff.sh BENCH_0.json BENCH_1.json

# bench-gate is the blocking form of bench, used by CI: the same diff, but
# out-of-band ns/op growth or any allocs/op growth fails the build.
bench-gate:
	sh scripts/bench.sh BENCH_1.json
	sh scripts/bench_diff.sh --fail BENCH_0.json BENCH_1.json

bench-baseline:
	sh scripts/bench.sh BENCH_0.json

# allocs prints the allocation profile of one study at the bench workload's
# sizes (every allocation sampled; top sites by alloc_objects): `make allocs
# STUDY=overload`. Diagnostic only; see scripts/allocs.sh.
STUDY ?= fleet
allocs:
	bash scripts/allocs.sh $(STUDY)
