package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunJobsPreservesOrder(t *testing.T) {
	units := make([]int, 50)
	for i := range units {
		units[i] = i
	}
	for _, parallel := range []int{1, 2, 8, 0} {
		got, err := runJobs(parallel, units, func(u int) (int, error) { return u * u, nil })
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunJobsDeterministicError(t *testing.T) {
	// Multiple units fail; the error of the lowest-indexed failure must win
	// so parallel and sequential runs report the same error.
	units := make([]int, 20)
	for i := range units {
		units[i] = i
	}
	for _, parallel := range []int{1, 4} {
		_, err := runJobs(parallel, units, func(i int) (int, error) {
			if i%3 == 1 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 1 failed" {
			t.Fatalf("parallel=%d: err = %v, want job 1's error", parallel, err)
		}
	}
}

func TestRunJobsSequentialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("boom")
	_, err := runJobs(1, []int{0, 1, 2}, func(i int) (int, error) {
		ran.Add(1)
		if i == 1 {
			return 0, sentinel
		}
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("sequential run executed %d jobs after error, want stop after 2", ran.Load())
	}
}

func TestRunJobsBoundsWorkers(t *testing.T) {
	const parallel = 3
	var inFlight, peak atomic.Int32
	gate := make(chan struct{}, parallel)
	_, err := runJobs(parallel, make([]struct{}, 24), func(struct{}) (struct{}, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		gate <- struct{}{}
		<-gate
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > parallel {
		t.Fatalf("peak concurrent jobs = %d, want <= %d", got, parallel)
	}
}

func TestParallelismResolution(t *testing.T) {
	if Parallelism(1) != 1 || Parallelism(7) != 7 {
		t.Fatal("positive parallelism must pass through")
	}
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Fatal("non-positive parallelism must resolve to at least one worker")
	}
}
