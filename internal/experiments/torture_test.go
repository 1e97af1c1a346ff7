package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/faults"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
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

// TestFaultSurface pins each stack's fault surface and every study's
// selection from it, at a small config: 4 Spanner groups over 3 regions and
// 5 BigTable tablet and BigQuery shuffle servers. Surface names are unique;
// every target takes exactly the actions its platform supports, and one
// event of each, sent to each target, applies. Each study's target lists
// are pinned literally, order included: a schedule forks one RNG stream
// per target in list order, so reordering a list changes the study's bytes.
func TestFaultSurface(t *testing.T) {
	b := newPlatformBuild(1, spacedSeeds, 1)
	b.spanner.Groups, b.spanner.Regions, b.spanner.RowsPerGroup = 4, 3, 200
	b.bigtable.TabletServers = 5
	b.bigquery.ShuffleServers = 5
	replica := []faults.Kind{faults.Crash, faults.Recover, faults.Straggler, faults.ClockSkew}
	tablet := []faults.Kind{faults.Crash, faults.Recover, faults.Partition, faults.Heal}
	shuffle := []faults.Kind{faults.Crash, faults.Recover, faults.Straggler}
	chunk := []faults.Kind{faults.Crash, faults.Recover}
	replicas := []string{
		"spanner/g0/r0", "spanner/g0/r1", "spanner/g0/r2", "spanner/g1/r0", "spanner/g1/r1", "spanner/g1/r2",
		"spanner/g2/r0", "spanner/g2/r1", "spanner/g2/r2", "spanner/g3/r0", "spanner/g3/r1", "spanner/g3/r2"}
	surfaces := map[taxonomy.Platform]map[string][]faults.Kind{
		taxonomy.Spanner: {},
		taxonomy.BigTable: {"bigtable/ts0": tablet, "bigtable/ts1": tablet, "bigtable/ts2": tablet,
			"bigtable/ts3": tablet, "bigtable/ts4": tablet, "bigtable/cs0": chunk},
		taxonomy.BigQuery: {"bigquery/ss0": shuffle, "bigquery/ss1": shuffle, "bigquery/ss2": shuffle,
			"bigquery/ss3": shuffle, "bigquery/ss4": shuffle, "bigquery/cs0": chunk},
	}
	for _, name := range replicas {
		surfaces[taxonomy.Spanner][name] = replica
	}
	for _, p := range taxonomy.Platforms() {
		t.Run(string(p), func(t *testing.T) {
			st, err := b.build(p)
			if err != nil {
				t.Fatal(err)
			}
			defer st.env.K.Close()
			got := map[string][]faults.Kind{}
			var evs []faults.Event
			b.faultSurface(st, func(name string, a faults.Actions) {
				if _, dup := got[name]; dup {
					t.Errorf("target %s is on the surface twice", name)
				}
				got[name] = actionKinds(a)
				for _, k := range got[name] {
					evs = append(evs, faults.Event{At: time.Duration(len(evs)+1) * time.Millisecond, Kind: k, Target: name, Factor: 1})
				}
			})
			if !reflect.DeepEqual(got, surfaces[p]) {
				t.Fatalf("surface = %v, want %v", got, surfaces[p])
			}
			eng := b.faultEngine(st)
			eng.InjectAll(evs)
			st.env.K.RunUntil(time.Duration(len(evs)+1) * time.Millisecond)
			if eng.Skipped != 0 || len(eng.Applied) != len(evs) {
				t.Fatalf("applied %d of %d events, skipped %d", len(eng.Applied), len(evs), eng.Skipped)
			}
		})
	}

	spannerCrash := []string{
		"spanner/g0/r0", "spanner/g0/r1", "spanner/g1/r1", "spanner/g1/r2",
		"spanner/g2/r0", "spanner/g2/r2", "spanner/g3/r0", "spanner/g3/r1"}
	partition := func(p taxonomy.Platform, arm string) [3][]string {
		crash, part, clocks := b.partitionTargets(p, arm)
		return [3][]string{crash, part, clocks}
	}
	for _, l := range []struct {
		name      string
		got, want any
	}{
		{"safety Spanner", b.crashTargets(taxonomy.Spanner, 2), spannerCrash},
		{"resilience Spanner", b.crashTargets(taxonomy.Spanner, 1), []string{
			"spanner/g0/r0", "spanner/g1/r1", "spanner/g2/r2", "spanner/g3/r0"}},
		{"safety/resilience BigTable", b.crashTargets(taxonomy.BigTable, 2), []string{
			"bigtable/cs0", "bigtable/ts0", "bigtable/ts2", "bigtable/ts4"}},
		{"safety/resilience/pipeline BigQuery", b.crashTargets(taxonomy.BigQuery, 0), []string{
			"bigquery/cs0", "bigquery/ss0", "bigquery/ss2", "bigquery/ss4"}},
		{"overload Spanner", b.brownoutTargets(taxonomy.Spanner), replicas},
		{"overload BigTable", b.brownoutTargets(taxonomy.BigTable), []string(nil)},
		{"overload BigQuery", b.brownoutTargets(taxonomy.BigQuery), []string{
			"bigquery/ss0", "bigquery/ss1", "bigquery/ss2", "bigquery/ss3", "bigquery/ss4"}},
		// Crash, partition and clock lists. Spanner crashes by group, then
		// region; the broken arm keeps group 0 off the clock list.
		{"partition Spanner", partition(taxonomy.Spanner, armNaive), [3][]string{spannerCrash, nil, replicas}},
		{"partition Spanner broken", partition(taxonomy.Spanner, armBroken), [3][]string{spannerCrash, nil, replicas[3:]}},
		// BigTable's chunkserver comes last.
		{"partition BigTable", partition(taxonomy.BigTable, armNaive), [3][]string{
			{"bigtable/ts0", "bigtable/ts2", "bigtable/ts4", "bigtable/cs0"}, {"bigtable/ts1", "bigtable/ts3"}, nil}},
		// BigQuery's chunkserver is on the surface but never drawn.
		{"partition BigQuery", partition(taxonomy.BigQuery, armNaive), [3][]string{
			{"bigquery/ss0", "bigquery/ss2", "bigquery/ss4"}, nil, nil}},
	} {
		if !reflect.DeepEqual(l.got, l.want) {
			t.Errorf("%s targets = %q, want %q", l.name, l.got, l.want)
		}
	}
}

// actionKinds lists the event kinds a target's actions accept, in kind
// order.
func actionKinds(a faults.Actions) []faults.Kind {
	var ks []faults.Kind
	for _, k := range []struct {
		kind faults.Kind
		ok   bool
	}{
		{faults.Crash, a.Crash != nil},
		{faults.Recover, a.Recover != nil},
		{faults.Straggler, a.SetSlowdown != nil},
		{faults.RateSurge, a.SetRate != nil},
		{faults.Partition, a.Partition != nil},
		{faults.Heal, a.Heal != nil},
		{faults.ClockSkew, a.SetClockSkew != nil},
	} {
		if k.ok {
			ks = append(ks, k.kind)
		}
	}
	return ks
}

// TestCheckedVerdict pins the checked studies' one verdict over hand-built
// arms: the honest arms must stay clean, and every broken arm must be
// convicted on its own — one broken arm's findings do not cover another's
// silence.
func TestCheckedVerdict(t *testing.T) {
	type arm struct {
		p          taxonomy.Platform
		name       string
		violations int
	}
	for _, tc := range []struct {
		name string
		arms []arm
		// want is a substring of the verdict, "" for a nil verdict.
		want string
	}{
		{"honest clean, broken convicted",
			[]arm{{taxonomy.Spanner, armHardened, 0}, {taxonomy.Spanner, armBroken, 8}, {taxonomy.BigTable, armBroken, 2}}, ""},
		{"no broken arms", []arm{{taxonomy.Spanner, "", 0}}, ""},
		{"honest violation",
			[]arm{{taxonomy.Spanner, armNaive, 1}, {taxonomy.Spanner, armBroken, 8}}, "1 violations in the honest arms"},
		{"one broken arm unconvicted",
			[]arm{{taxonomy.Spanner, armBroken, 8}, {taxonomy.BigTable, armBroken, 0}}, "from the BigTable broken arm (seed 3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c checked[PartitionRow]
			for _, a := range tc.arms {
				out := armResult[PartitionRow]{Row: PartitionRow{Platform: a.p, Arm: a.name, Seed: 3, Violations: a.violations}}
				for range a.violations {
					out.Violations = append(out.Violations, SafetyViolation{Seed: 3})
				}
				c.add(armUnit{Platform: a.p, Arm: a.name, Seed: 3}, out)
			}
			err := c.verdict("partition")
			if tc.want == "" {
				if err != nil {
					t.Fatalf("verdict = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "Spanner") {
				t.Fatalf("verdict = %v, want an error naming only %q", err, tc.want)
			}
		})
	}
}
