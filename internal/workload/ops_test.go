package workload

import (
	"testing"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/platform"
	"hyperprof/internal/stats"
)

// The tests below pin each operation source's draw order against copies of
// the drivers' former inline draws. Every study's bytes depend on these
// orders, so a change to one must be a documented re-baseline, not a side
// effect of a refactor.

var drivers = []driver{closedLoopDriver, openLoopDriver, overloadDriver}

// checkDraws draws n operations from got (on one seeded stream) and from
// want (the inline copy, on an identically seeded stream of its own), and
// requires the same parameters and the same number of RNG draws.
func checkDraws(t *testing.T, drv driver, ops *Ops, want func(rng *stats.RNG, pick *stats.Weighted) op) {
	t.Helper()
	const seed, n = 42, 400
	gotRNG, wantRNG := stats.NewRNG(seed), stats.NewRNG(seed)
	s := ops.stream(gotRNG, drv)
	pick := stats.NewWeighted(wantRNG, ops.weights)
	for i := 0; i < n; i++ {
		if g, w := s.next(), want(wantRNG, pick); g != w {
			t.Fatalf("%s/%s draw %d = %+v, inline draw = %+v", ops.name, drv, i, g, w)
		}
	}
	if gotRNG.Uint64() != wantRNG.Uint64() {
		t.Fatalf("%s/%s: streams consumed different numbers of draws", ops.name, drv)
	}
	if want := ops.name + "-" + string(drv) + "-value-0123456789abcdef"; string(s.val) != want {
		t.Fatalf("%s/%s write value = %q, want %q", ops.name, drv, s.val, want)
	}
}

func TestSpannerOpsDrawOrder(t *testing.T) {
	mix := DefaultSpannerMix()
	for _, drv := range drivers {
		// Twin deployments on one seed: PickRow draws from the database's
		// own Zipf stream, which each side must advance identically.
		env, db := spannerFixture(t, 70)
		_, twin := spannerFixture(t, 70)
		checkDraws(t, drv, SpannerOps(env, db, mix), func(rng *stats.RNG, pick *stats.Weighted) op {
			g := rng.Intn(twin.NumGroups())
			row := twin.PickRow()
			kind := pick.Next()
			var strong bool
			// Closed-loop clients flip the strong-read coin for reads only;
			// the open-loop and overload drivers at every arrival.
			if drv != closedLoopDriver || kind == 0 {
				strong = rng.Bool(mix.StrongReadFrac)
			}
			return op{kind: kind, shard: g, row: row, strong: strong}
		})
	}
}

func bigtableFixture(t *testing.T, seed uint64) (*platform.Env, *bigtable.DB) {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	cfg := bigtable.DefaultConfig()
	cfg.Tablets = 4
	cfg.TabletServers = 2
	cfg.RowsPerTablet = 400
	db, err := bigtable.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, db
}

func TestBigTableOpsDrawOrder(t *testing.T) {
	for _, drv := range drivers {
		env, db := bigtableFixture(t, 71)
		_, twin := bigtableFixture(t, 71)
		checkDraws(t, drv, BigTableOps(env, db, DefaultBigTableMix()), func(rng *stats.RNG, pick *stats.Weighted) op {
			tb := rng.Intn(twin.NumTablets())
			row := twin.PickRow()
			return op{kind: pick.Next(), shard: tb, row: row}
		})
	}
}

func TestBigQueryOpsDrawOrder(t *testing.T) {
	env := platform.NewEnv(72, 1)
	cfg := bigquery.DefaultConfig()
	cfg.FactPartitions = 4
	cfg.RowsPerPartition = 100
	cfg.Workers = 2
	e, err := bigquery.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := BigQueryOps(env, e, DefaultBigQueryMix())
	for _, drv := range drivers {
		checkDraws(t, drv, ops, func(rng *stats.RNG, pick *stats.Weighted) op {
			threshold := rng.Intn(900)
			return op{kind: pick.Next(), shard: threshold}
		})
	}
}
