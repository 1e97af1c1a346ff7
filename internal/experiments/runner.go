package experiments

import (
	"runtime"
	"sync"
)

// This file is the parallel experiment runner. Every simulation kernel in
// this repository is single-threaded and deterministic, and independent
// kernels share no state (each platform.Env owns its kernel, network, RNG,
// tracer and profiler), so the arms of a study — the three platforms of a
// characterization, the (platform, seed) runs of the safety sweep, the
// offered-load points of the latency curve — can execute on concurrent
// goroutines without perturbing a single simulated bit. Determinism is
// preserved by construction: parallelism decides only *when* an arm computes
// its result, never *what* the result is, and results are merged in the fixed
// order of the unit slice, so sequential and parallel runs render
// byte-identical reports. DESIGN.md "Performance architecture" states the
// invariant precisely.

// Parallelism resolves a study's configured parallelism knob: n <= 0 means
// "one worker per available CPU" (the default), 1 means sequential, and any
// larger value bounds the concurrent kernels at n.
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runJobs calls fn on every unit on at most Parallelism(parallel) concurrent
// workers and returns the results in unit order. Each call must be
// self-contained: it builds its own kernels and touches no state shared with
// other calls. If any call fails, the error of the lowest-indexed failing
// unit is returned (so the reported error is deterministic regardless of
// worker interleaving); with parallel == 1 units run sequentially in order
// and stop at the first error, exactly like the pre-parallel harness.
func runJobs[U, T any](parallel int, units []U, fn func(U) (T, error)) ([]T, error) {
	results := make([]T, len(units))
	workers := Parallelism(parallel)
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for i, u := range units {
			r, err := fn(u)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, len(units))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = fn(units[i])
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
