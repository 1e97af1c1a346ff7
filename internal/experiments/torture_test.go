package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// TestDrivePacing pins drive's schedule on a bare environment
// with a counting op that takes a fixed virtual time: a zero horizon is a
// closed loop (each op starts when the previous one ends), a positive horizon
// starts op i of client c at exactly offset(c) + i·slot, and the op's write
// and error reports reach the counters.
func TestDrivePacing(t *testing.T) {
	const opTime = time.Millisecond
	errOp := errors.New("op failed")
	for _, tc := range []struct {
		name              string
		clients, totalOps int
		horizon           time.Duration
	}{
		{"closed", 4, 40, 0},
		{"closed-fewer-ops-than-clients", 4, 2, 0},
		{"open", 4, 40, 200 * time.Millisecond},
		{"open-one-client", 1, 5, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := platform.NewEnv(1, 1)
			per := max(1, tc.totalOps/tc.clients)
			slot := tc.horizon / time.Duration(per)
			starts := map[string]time.Duration{}
			var want driveCounts
			dc := drive(env, "test", "torture", 7, tc.clients, tc.totalOps, tc.horizon,
				func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
					if name := fmt.Sprintf("test-torture-c%d", c); p.Name() != name {
						t.Errorf("client %d runs as %q, want %q", c, p.Name(), name)
					}
					starts[fmt.Sprintf("c%d/op%d", c, i)] = p.Now()
					p.Sleep(opTime)
					want.ops++
					write, failed := i%2 == 0, (c+i)%3 == 0
					if write {
						want.writes++
					}
					if !failed {
						return write, nil
					}
					want.errs++
					if write {
						want.werrs++
					}
					return write, errOp
				})
			for c := 0; c < tc.clients; c++ {
				offset := slot * time.Duration(c) / time.Duration(tc.clients)
				for i := 0; i < per; i++ {
					start := time.Duration(i) * opTime
					if tc.horizon > 0 {
						start = offset + slot*time.Duration(i)
					}
					if got, ok := starts[fmt.Sprintf("c%d/op%d", c, i)]; !ok || got != start {
						t.Errorf("client %d op %d started at %v (ran: %v), want %v", c, i, got, ok, start)
					}
					want.elapsed = max(want.elapsed, start+opTime)
				}
			}
			if want.ops != tc.clients*per {
				t.Errorf("%d ops ran, want %d clients × %d", want.ops, tc.clients, per)
			}
			if dc != want {
				t.Errorf("counts = %+v, want %+v", dc, want)
			}
		})
	}
}
