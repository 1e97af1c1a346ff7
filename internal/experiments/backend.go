package experiments

// This file decides where a study's arms compute. Every study's arms are
// independent deterministic simulations, so the backend decides only *where*
// an arm computes — never what it computes. There are two places:
//
//   - In-process (Backend ""): each unit's run function is called directly on
//     the goroutine pool (runner.go); nothing is serialized.
//   - Exec (BackendExec): units are partitioned across `hyperprof -worker`
//     subprocesses via internal/dispatch, which is what makes 10k-seed
//     safety tortures and full design-space sweeps practical: each worker is
//     a fresh address space, so the study's memory high-water mark stays
//     flat and a crashed arm cannot take the coordinator down.
//
// A remotable study describes each arm exactly once, as a typed work unit,
// and declares one unitKind: the wire name plus the function that runs a
// unit. runUnits hands the units to the configured backend, and the worker
// registry is built from the same kind values, so the in-process and exec
// paths cannot drift apart.
//
// The determinism invariant extends across backends: a study's exported
// bytes are identical whether its arms ran sequentially, on the goroutine
// pool, or across worker processes. The fixed-order merge already
// guarantees this for goroutines; for processes it additionally requires
// that every remotable arm result survives a JSON round trip bit-exactly
// (encoding/json round-trips float64, time.Duration and nil-vs-empty slices
// faithfully; trace.Trace carries its unexported sampling state through
// custom JSON). TestStudyConformance pins the invariant byte-for-byte.
//
// Not every study is remotable. The characterization (and the observability
// study riding on it) hands live simulator state — kernels, profilers,
// tracers, storage inventories — straight to the figure extractors; there
// is no wire form of a platformRun, so those studies always execute
// in-process regardless of the configured backend. Safety, resilience,
// latency, overload, partition, fleet and pipeline arms condense to plain
// data and ship fine.

import (
	"encoding/json"
	"fmt"
	"io"

	"hyperprof/internal/dispatch"
)

// BackendExec selects the multi-process worker backend in
// StudyConfig.Backend; the empty string selects the in-process pool.
const BackendExec = "exec"

// unitKind describes one remotable arm type: U is the unit (the arm's
// parameters, its wire form on the exec backend) and T the arm result.
type unitKind[U, T any] struct {
	// name routes a unit to its kind in the worker registry.
	name string
	// run computes one arm under the study config.
	run func(StudyConfig, U) (T, error)
}

// checkBackend rejects a Backend name no study understands.
func checkBackend(cfg StudyConfig) error {
	if cfg.Backend != "" && cfg.Backend != BackendExec {
		return fmt.Errorf("experiments: unknown backend %q (want \"\" or %q)", cfg.Backend, BackendExec)
	}
	return nil
}

// runUnits executes a study's units on the configured backend and returns
// their results in unit order. If any unit fails, the error of the
// lowest-indexed failing unit is returned, so the surfaced error is
// deterministic regardless of worker interleaving.
func runUnits[U, T any](cfg StudyConfig, kind unitKind[U, T], units []U) ([]T, error) {
	if err := checkBackend(cfg); err != nil {
		return nil, err
	}
	if cfg.Backend == BackendExec {
		return runExec(cfg, kind, units)
	}
	return runJobs(cfg.Parallel, units, func(u U) (T, error) { return kind.run(cfg, u) })
}

// runExec executes the units across hyperprof -worker subprocesses. Each
// unit is marshalled once, together with the config its worker runs under.
func runExec[U, T any](cfg StudyConfig, kind unitKind[U, T], units []U) ([]T, error) {
	ec := cfg.Exec
	workers := ec.Workers
	if workers <= 0 {
		workers = Parallelism(cfg.Parallel)
	}
	retries := ec.Retries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	// Workers re-run units in a fresh process, so the config they see must
	// not re-select a backend: arms execute directly.
	wcfg := cfg
	wcfg.Backend = ""
	wcfg.Exec = ExecConfig{}
	pool := &dispatch.Pool{
		Command:     ec.Command,
		Env:         ec.Env,
		Workers:     workers,
		UnitTimeout: ec.UnitTimeout,
		Retries:     retries,
	}
	wire := make([]dispatch.Unit, len(units))
	for i, u := range units {
		body, err := json.Marshal(wireUnit[U]{Cfg: wcfg, Body: u})
		if err != nil {
			return nil, fmt.Errorf("experiments: marshal %s unit %d: %w", kind.name, i, err)
		}
		wire[i] = dispatch.Unit{Kind: kind.name, Body: body}
	}
	raws, err := pool.Run(wire)
	if err != nil {
		return nil, err
	}
	results := make([]T, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &results[i]); err != nil {
			return nil, fmt.Errorf("experiments: decode %s result %d: %w", kind.name, i, err)
		}
	}
	return results, nil
}

// wireUnit is the exec backend's frame body: the study config the arm runs
// under plus the unit's own parameters. The coordinator encodes the typed
// unit; the worker decodes the body raw and leaves it to the unit's kind.
type wireUnit[B any] struct {
	Cfg  StudyConfig `json:"cfg"`
	Body B           `json:"body"`
}

// runWire is the worker side of a kind: decode the unit, run it, and encode
// the result.
func (k unitKind[U, T]) runWire(cfg StudyConfig, body json.RawMessage) (json.RawMessage, error) {
	var u U
	if err := json.Unmarshal(body, &u); err != nil {
		return nil, fmt.Errorf("experiments: decode %s unit: %w", k.name, err)
	}
	result, err := k.run(cfg, u)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal %s result: %w", k.name, err)
	}
	return out, nil
}

// unitRunners is the worker registry mapping a unit kind's name to its
// decode-run-encode adapter.
var unitRunners = map[string]func(StudyConfig, json.RawMessage) (json.RawMessage, error){
	safetyKind.name:     safetyKind.runWire,
	latencyKind.name:    latencyKind.runWire,
	resilienceKind.name: resilienceKind.runWire,
	overloadKind.name:   overloadKind.runWire,
	partitionKind.name:  partitionKind.runWire,
	fleetKind.name:      fleetKind.runWire,
	pipelineKind.name:   pipelineKind.runWire,
}

// runUnit resolves and executes one serialized work unit in this process.
func runUnit(cfg StudyConfig, kind string, body json.RawMessage) (json.RawMessage, error) {
	run, ok := unitRunners[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown work unit kind %q", kind)
	}
	return run(cfg, body)
}

// ServeWorker runs the worker side of the exec backend protocol on the
// given streams until EOF: decode each frame's study config and unit
// parameters, run the arm in this process, and answer with the serialized
// result. cmd/hyperprof serves this under its -worker flag.
func ServeWorker(r io.Reader, w io.Writer) error {
	return dispatch.Serve(r, w, func(kind string, body json.RawMessage) (json.RawMessage, error) {
		var u wireUnit[json.RawMessage]
		if err := json.Unmarshal(body, &u); err != nil {
			return nil, fmt.Errorf("experiments: decode %s work unit: %w", kind, err)
		}
		return runUnit(u.Cfg, kind, u.Body)
	})
}
