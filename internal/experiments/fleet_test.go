package experiments

import (
	"runtime"
	"testing"
	"time"
)

// smallFleetConfig is a reduced fleet study for cross-backend and
// determinism tests: real sketch-mode plumbing, minutes of virtual time,
// milliseconds of wall clock.
func smallFleetConfig() StudyConfig {
	cfg := DefaultFleetStudyConfig()
	cfg.Fleet.Servers = 60
	cfg.Fleet.Users = 10_000
	cfg.Fleet.Ops = 900
	cfg.Fleet.Duration = 500 * time.Millisecond
	return cfg
}

// TestFleetScaleDefaultCompletesBounded is the tentpole acceptance pin: the
// default fleet configuration — 2000 servers, one million logical users —
// completes in sketch mode with every measurement surface bounded and the
// coordinator heap flat relative to the op count.
func TestFleetScaleDefaultCompletesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale run skipped in -short mode")
	}
	cfg := DefaultFleetStudyConfig()
	if cfg.Fleet.Servers < 2000 || cfg.Fleet.Users < 1_000_000 {
		t.Fatalf("default fleet %d servers / %d users below the 2000/1M floor",
			cfg.Fleet.Servers, cfg.Fleet.Users)
	}
	// The kernel never reclaims a process still parked when its run ends, so
	// studies run earlier in this test binary leave their parked goroutines,
	// and the simulator state they reference, on the heap. Baseline the live
	// heap first so the gate below measures what the fleet run itself
	// retains, whatever order the tests run in.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := cfg.FleetScale()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 3 {
		t.Fatalf("fleet study produced %d rows, want 3", len(st.Rows))
	}
	var servers, ops int
	for _, r := range st.Rows {
		servers += r.Servers
		ops += r.Ops
		if r.Ops <= 0 {
			t.Errorf("%s completed no operations", r.Platform)
		}
		if r.P50Seconds <= 0 || r.P99Seconds < r.P50Seconds || r.MaxSeconds < r.P99Seconds {
			t.Errorf("%s quantiles not ordered: p50=%g p99=%g max=%g",
				r.Platform, r.P50Seconds, r.P99Seconds, r.MaxSeconds)
		}
		// Bounded measurement: the sketch's bucket count is a function of
		// the error bound and value range, not of r.Ops, and the history
		// reservoir never exceeds its cap.
		if r.SketchBuckets <= 0 || r.SketchBuckets > 4096 {
			t.Errorf("%s sketch holds %d buckets, want (0, 4096]", r.Platform, r.SketchBuckets)
		}
		if r.HistoryKept > defaultFleetHistoryCap {
			t.Errorf("%s history kept %d ops, cap is %d", r.Platform, r.HistoryKept, defaultFleetHistoryCap)
		}
		if r.HistorySeen < int64(r.HistoryKept) {
			t.Errorf("%s history seen %d < kept %d", r.Platform, r.HistorySeen, r.HistoryKept)
		}
	}
	if servers != cfg.Fleet.Servers {
		t.Errorf("rows account for %d servers, want %d", servers, cfg.Fleet.Servers)
	}
	if ops < cfg.Fleet.Ops*9/10 {
		t.Errorf("fleet completed %d ops, want ≈%d", ops, cfg.Fleet.Ops)
	}
	// Asserted-flat heap: the live heap the run adds to the coordinator must
	// sit far below anything proportional to ops or users. 256 MiB is ~50x
	// the observed footprint and ~100 bytes/user — exact per-user or per-op
	// retention would blow straight through it.
	const ceiling = 256 << 20
	if st.Heap.HeapAllocBytes == 0 {
		t.Fatal("heap stats not populated")
	}
	grown := int64(st.Heap.HeapAllocBytes) - int64(before.HeapAlloc)
	if grown > ceiling {
		t.Errorf("fleet run grew the live heap by %d MiB, ceiling %d MiB",
			grown>>20, ceiling>>20)
	}
	t.Logf("fleet: %d ops, %.1f MiB live heap (%.1f MiB before the run)\n%s", ops,
		float64(st.Heap.HeapAllocBytes)/(1<<20), float64(before.HeapAlloc)/(1<<20), RenderFleet(st))
}

// TestFleetScaleExactMode checks the sketch knob is a knob: a small fleet
// run with sketching disabled uses exact recorders (no bucket counts, full
// history) and still completes.
func TestFleetScaleExactMode(t *testing.T) {
	cfg := smallFleetConfig()
	cfg.Sketch = SketchConfig{}
	st, err := cfg.FleetScale()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Rows {
		if r.SketchBuckets != 0 {
			t.Errorf("%s reports %d sketch buckets in exact mode", r.Platform, r.SketchBuckets)
		}
		if r.HistorySeen > 0 && int64(r.HistoryKept) != r.HistorySeen {
			t.Errorf("%s exact history kept %d of %d ops", r.Platform, r.HistoryKept, r.HistorySeen)
		}
	}
}

// TestFleetScaleValidation pins the config guard.
func TestFleetScaleValidation(t *testing.T) {
	cfg := DefaultFleetStudyConfig()
	cfg.Fleet.Servers = 2
	if _, err := cfg.FleetScale(); err == nil {
		t.Fatal("2-server fleet accepted")
	}
	cfg = DefaultFleetStudyConfig()
	cfg.Fleet.Ops = 0
	if _, err := cfg.FleetScale(); err == nil {
		t.Fatal("0-op fleet accepted")
	}
}

// TestFleetSketchHeapFlat is the memory-architecture pin at unit scale:
// growing the op budget 8x must not grow the coordinator's live heap
// accordingly. (The fleet-scale variant of this assertion runs in
// TestFleetScaleDefaultCompletesBounded.)
func TestFleetSketchHeapFlat(t *testing.T) {
	heapAfter := func(ops int) uint64 {
		cfg := smallFleetConfig()
		cfg.Fleet.Ops = ops
		if _, err := cfg.FleetScale(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	small := heapAfter(600)
	large := heapAfter(4800)
	// Identical bounded recorders → the live heap difference is noise, not
	// proportional growth. Allow generous jitter: 8x ops may cost at most
	// +8 MiB, far below what exact recording of 4200 extra ops' traces,
	// histories and latencies would retain if anything leaked per-op.
	if large > small+(8<<20) {
		t.Fatalf("live heap grew from %d KiB to %d KiB under an 8x op budget: fleet memory is not flat",
			small>>10, large>>10)
	}
}
