package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

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

// TestRunUnitRejectsMalformedBody feeds every registered kind a truncated
// and a wrongly typed body: each must fail with an error naming the kind.
func TestRunUnitRejectsMalformedBody(t *testing.T) {
	for kind := range unitRunners {
		for _, body := range []string{`{`, `"x"`} {
			_, err := runUnit(StudyConfig{}, kind, json.RawMessage(body))
			if err == nil || !strings.Contains(err.Error(), kind) {
				t.Errorf("kind %s, body %s: want an error naming the kind, got %v", kind, body, err)
			}
		}
	}
}
