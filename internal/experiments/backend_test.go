package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
)

// The exec backend re-invokes this test binary: TestMain hijacks the process
// into a protocol worker when the coordinator's env var is set, so no
// separate worker binary is built. TestStudyConformance compares every
// remotable study's bytes across the in-process and exec backends.

// backendWorkerEnv selects the test binary's alter ego when it is re-executed
// as an exec-backend worker: "serve" answers the protocol, "crash" simulates
// a worker that dies on startup.
const backendWorkerEnv = "HYPERPROF_EXPERIMENTS_TEST_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(backendWorkerEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		os.Exit(7)
	}
}

// withExec returns cfg retargeted at the exec backend, pointing the worker
// pool back at this test binary in worker mode.
func withExec(t *testing.T, cfg StudyConfig) StudyConfig {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = BackendExec
	cfg.Exec.Command = []string{exe}
	cfg.Exec.Env = []string{backendWorkerEnv + "=serve"}
	cfg.Exec.Workers = 2
	return cfg
}

func backendSafetyConfig() StudyConfig {
	cfg := DefaultSafetyStudyConfig()
	cfg.Check.Seeds = 2
	cfg.Ops = PlatformOps{Spanner: 120, BigTable: 120, BigQuery: 12}
	if testing.Short() {
		cfg.Ops = PlatformOps{Spanner: 60, BigTable: 60, BigQuery: 6}
	}
	return cfg
}

// TestCharacterizationIgnoresBackend pins the documented carve-out: the
// characterization's results hold live simulator state with no wire form, so
// it runs in-process — and still succeeds — whatever backend is selected.
func TestCharacterizationIgnoresBackend(t *testing.T) {
	cfg := DefaultCharStudyConfig()
	cfg.Ops = PlatformOps{Spanner: 80, BigTable: 80, BigQuery: 8}
	cfg.Backend = BackendExec
	cfg.Exec.Command = []string{"/nonexistent-worker-binary"}
	ch, err := cfg.Characterize()
	if err != nil {
		t.Fatalf("characterization must not spawn workers: %v", err)
	}
	for _, p := range taxonomy.Platforms() {
		if len(ch.Traces[p]) == 0 {
			t.Fatalf("%s: no traces collected", p)
		}
	}
}

// TestExecWorkerCrashSurfacesDeterministicError kills every worker at startup
// and checks the study fails with the lowest-indexed unit's transport error
// instead of hanging or succeeding partially.
func TestExecWorkerCrashSurfacesDeterministicError(t *testing.T) {
	cfg := withExec(t, backendSafetyConfig())
	cfg.Exec.Env = []string{backendWorkerEnv + "=crash"}
	_, err := cfg.Safety()
	if err == nil {
		t.Fatal("want transport error from crashing workers, got success")
	}
	if !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("want lowest-index unit in the error, got: %v", err)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	for _, backend := range []string{"carrier-pigeon", "pool"} {
		cfg := backendSafetyConfig()
		cfg.Backend = backend
		if _, err := cfg.Safety(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("backend %q: want unknown-backend error, got: %v", backend, err)
		}
		char := DefaultCharStudyConfig()
		char.Backend = backend
		if _, err := char.Characterize(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("characterization, backend %q: want unknown-backend error, got: %v", backend, err)
		}
	}
}

func TestRunUnitRejectsUnknownKind(t *testing.T) {
	_, err := runUnit(StudyConfig{}, "no/such/kind", json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "unknown work unit kind") {
		t.Fatalf("want unknown-kind error, got: %v", err)
	}
}

// unitTestConfigs is a small valid config per registered kind.
func unitTestConfigs() map[string]StudyConfig {
	ops := PlatformOps{Spanner: 40, BigTable: 40, BigQuery: 4}
	safety, partition, resilience := DefaultSafetyStudyConfig(), DefaultPartitionStudyConfig(), DefaultResilienceStudyConfig()
	safety.Ops, partition.Ops, resilience.Ops = ops, ops, ops
	pipeline := DefaultPipelineStudyConfig()
	pipeline.Pipe = PipelineConfig{Records: 6, Batches: 2, Iterations: 1}
	overload := DefaultOverloadStudyConfig()
	l := &overload.Load
	l.Duration, l.TriggerAt, l.TriggerDur = 400*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond
	l.SpannerRate, l.BigTableRate, l.BigQueryRate = 200, 300, 20
	fleet := DefaultFleetStudyConfig()
	fleet.Fleet = FleetConfig{Servers: 12, Users: 100, Ops: 60, Duration: 200 * time.Millisecond}
	return map[string]StudyConfig{
		safetyKind.name:     safety,
		partitionKind.name:  partition,
		pipelineKind.name:   pipeline,
		resilienceKind.name: resilience,
		overloadKind.name:   overload,
		fleetKind.name:      fleet,
		latencyKind.name:    {Seed: 1},
	}
}

// refusedUnits are well-formed bodies under a config, or with a label, the
// study's entry point refuses, each with the part of the error that says so.
func refusedUnits() []struct {
	kind string
	cfg  StudyConfig
	body string
	want string
} {
	cfgs := unitTestConfigs()
	return []struct {
		kind string
		cfg  StudyConfig
		body string
		want string
	}{
		{"safety/arm", StudyConfig{}, `{"platform":"Spanner","seed":1,"horizon":0}`, "invalid safety config"},
		{"safety/arm", cfgs["safety/arm"], `{"platform":"Oracle","seed":1,"horizon":0}`, "runs no arm"},
		{"safety/arm", cfgs["safety/arm"], `{"platform":"Spanner","seed":1,"horizon":-1}`, "runs no arm"},
		{"partition/arm", StudyConfig{}, `{"platform":"Spanner","arm":"baseline","seed":1,"horizon":0}`, "invalid partition config"},
		{"partition/arm", cfgs["partition/arm"], `{"platform":"BigQuery","arm":"sideways","seed":1,"horizon":0}`, "runs no arm"},
		{"pipeline/arm", StudyConfig{}, `{"arm":"baseline","seed":1,"horizon":0}`, "invalid pipeline config"},
		{"pipeline/arm", cfgs["pipeline/arm"], `{"arm":"replayed","seed":1,"horizon":0}`, "runs no arm"},
		{"pipeline/arm", cfgs["pipeline/arm"], `{"platform":"Spanner","arm":"baseline","seed":1,"horizon":0}`, "runs no arm"},
		{"overload/pair", StudyConfig{}, `{"platform":"Spanner","seed":0,"horizon":0}`, "invalid overload config"},
		{"overload/pair", cfgs["overload/pair"], `{"platform":"Spanner","arm":"protected","seed":0,"horizon":0}`, "runs no arm"},
		{"resilience/arm", StudyConfig{}, `{"platform":"Spanner","seed":0,"horizon":0}`, "invalid resilience config"},
		{"resilience/arm", cfgs["resilience/arm"], `{"platform":"BigQuery","seed":0,"horizon":-5}`, "runs no arm"},
		{"fleet/platform", StudyConfig{}, `{"platform":"Spanner","seed":0,"horizon":0}`, "invalid fleet config"},
		{"fleet/platform", cfgs["fleet/platform"], `{"seed":0,"horizon":0}`, "runs no arm"},
		{"latency/point", StudyConfig{}, `{"rate":100,"ops":0}`, "opsPerPoint must be positive"},
	}
}

// TestRunUnitRejectsMalformedBody feeds every registered kind a truncated
// and a wrongly typed body, then well-formed bodies its study's entry point
// would refuse: each must fail, before the arm runs, with an error naming
// the kind.
func TestRunUnitRejectsMalformedBody(t *testing.T) {
	for kind := range unitRunners {
		for _, body := range []string{`{`, `"x"`} {
			_, err := runUnit(StudyConfig{}, kind, json.RawMessage(body))
			if err == nil || !strings.Contains(err.Error(), kind) {
				t.Errorf("kind %s, body %s: want an error naming the kind, got %v", kind, body, err)
			}
		}
	}
	for _, tc := range refusedUnits() {
		_, err := runUnit(tc.cfg, tc.kind, json.RawMessage(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.kind) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("kind %s, body %s: want an error naming the kind and %q, got %v", tc.kind, tc.body, tc.want, err)
		}
	}
}

// FuzzRunUnit runs arbitrary (kind, body) frames through the worker registry
// under unitTestConfigs: each must run or fail with an error naming its
// kind, and none may panic. The seeds are one runnable unit per kind plus
// TestRunUnitRejectsMalformedBody's bodies. Latency points above 64 ops are
// skipped: the op count is the one size a body carries, and an unbounded
// one only makes an input slow.
func FuzzRunUnit(f *testing.F) {
	cfgs := unitTestConfigs()
	for kind, body := range map[string]string{
		"safety/arm":     `{"platform":"BigTable","seed":2,"horizon":3000000}`,
		"partition/arm":  `{"platform":"BigQuery","arm":"naive","seed":1,"horizon":40000000}`,
		"pipeline/arm":   `{"arm":"faulted","seed":1,"horizon":20000000}`,
		"overload/pair":  `{"platform":"BigQuery","seed":0,"horizon":0}`,
		"resilience/arm": `{"platform":"BigTable","seed":0,"horizon":2000000}`,
		"fleet/platform": `{"platform":"BigQuery","seed":0,"horizon":0}`,
		"latency/point":  `{"rate":500,"ops":16}`,
	} {
		f.Add(kind, []byte(body))
		f.Add(kind, []byte(`{`))
	}
	for _, tc := range refusedUnits() {
		f.Add(tc.kind, []byte(tc.body))
	}
	f.Add("no/such/kind", []byte(`{}`))
	if len(cfgs) != len(unitRunners) {
		f.Fatalf("%d kinds have a fuzz config, %d are registered", len(cfgs), len(unitRunners))
	}
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		var point latencyUnit
		if kind == latencyKind.name && json.Unmarshal(body, &point) == nil && point.Ops > 64 {
			t.Skip()
		}
		_, err := runUnit(cfgs[kind], kind, body)
		if _, ok := unitRunners[kind]; !ok {
			if err == nil || !strings.Contains(err.Error(), "unknown work unit kind") {
				t.Fatalf("kind %q: want an unknown-kind error, got %v", kind, err)
			}
			return
		}
		if err != nil && !strings.Contains(err.Error(), kind) {
			t.Fatalf("kind %s, body %s: error does not name the kind: %v", kind, body, err)
		}
	})
}
