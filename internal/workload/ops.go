package workload

import (
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// SpannerMix is the Spanner operation mix. Weights need not sum to 1.
type SpannerMix struct {
	Reads, Writes, Queries float64
	StrongReadFrac         float64
}

// DefaultSpannerMix returns the calibrated default: read-dominated OLTP.
func DefaultSpannerMix() SpannerMix {
	return SpannerMix{Reads: 0.60, Writes: 0.28, Queries: 0.12, StrongReadFrac: 0.10}
}

// BigTableMix is the BigTable operation mix.
type BigTableMix struct {
	Gets, Puts, Scans float64
}

// DefaultBigTableMix returns the calibrated default.
func DefaultBigTableMix() BigTableMix {
	return BigTableMix{Gets: 0.55, Puts: 0.35, Scans: 0.10}
}

// BigQueryMix is the BigQuery query mix.
type BigQueryMix struct {
	ScanAgg, Join, Report float64
}

// DefaultBigQueryMix returns the calibrated default: mostly large analytic
// scans, some joins, a tail of small dashboard queries.
func DefaultBigQueryMix() BigQueryMix {
	return BigQueryMix{ScanAgg: 0.50, Join: 0.35, Report: 0.15}
}

// Ops is one platform's operation source: the one place its operation mix
// is drawn and issued. The closed-loop, open-loop and overload drivers all
// consume it. It fixes how an operation's parameters are drawn from a
// driver's RNG stream, how the operation is issued (trace start, platform
// call, trace finish), the closed-loop mean think time and the shutdown
// hook run once the workload drains.
type Ops struct {
	env      *platform.Env
	name     string // prefix of process names, error labels and write values
	platform taxonomy.Platform
	weights  []float64     // the mix over operation kinds 0, 1 and 2
	think    time.Duration // closed-loop mean think time
	stop     func()        // shutdown hook; nil when the platform has none
	draw     func(s *stream) op
	call     func(p *sim.Proc, tr *trace.Trace, x op, val []byte) error
}

// op is one drawn operation. Every in-flight arrival captures one, so it
// stays a few words.
type op struct {
	kind   int  // index into the mix
	shard  int  // Spanner group, BigTable tablet or BigQuery threshold
	row    int  // Zipf-popular row (Spanner and BigTable)
	strong bool // strong Spanner read
}

// driver names the traffic driver a stream feeds. Two asymmetries between
// drivers are pinned, because changing either changes the study bytes: the
// name is part of the value every write carries, and Spanner closed-loop
// clients flip the strong-read coin only for reads while the open-loop and
// overload drivers flip it at every arrival.
type driver string

const (
	closedLoopDriver driver = "workload"
	openLoopDriver   driver = "openloop"
	overloadDriver   driver = "overload"
)

// stream is an Ops bound to one RNG stream of one driver: a closed-loop
// client, the open-loop arrival process or an overload tenant.
type stream struct {
	*Ops
	rng  *stats.RNG
	pick *stats.Weighted
	drv  driver
	val  []byte // the value this stream's writes carry
}

func (o *Ops) stream(rng *stats.RNG, drv driver) *stream {
	return &stream{
		Ops:  o,
		rng:  rng,
		pick: stats.NewWeighted(rng, o.weights),
		drv:  drv,
		val:  []byte(o.name + "-" + string(drv) + "-value-0123456789abcdef"),
	}
}

// next draws the stream's next operation.
func (s *stream) next() op { return s.draw(s) }

// issue runs one drawn operation as one trace.
func (s *stream) issue(p *sim.Proc, x op) error {
	tr := s.env.Tracer.Start(s.platform, p.Now())
	err := s.call(p, tr, x, s.val)
	s.env.Tracer.Finish(tr, p.Now())
	return err
}

// shutdown runs the platform's stop hook, if it has one.
func (o *Ops) shutdown() {
	if o.stop != nil {
		o.stop()
	}
}

// SpannerOps is the Spanner operation source: reads, commits and queries on
// a random group's Zipf-popular row.
func SpannerOps(env *platform.Env, db *spanner.DB, mix SpannerMix) *Ops {
	return &Ops{
		env:      env,
		name:     "spanner",
		platform: taxonomy.Spanner,
		weights:  []float64{mix.Reads, mix.Writes, mix.Queries},
		think:    time.Millisecond,
		stop:     db.Stop,
		draw: func(s *stream) op {
			// Fields are drawn in lexical order: group, row, kind.
			x := op{shard: s.rng.Intn(db.NumGroups()), row: db.PickRow(), kind: s.pick.Next()}
			// The strong-read coin's order depends on the driver; see driver.
			if x.kind == 0 || s.drv != closedLoopDriver {
				x.strong = s.rng.Bool(mix.StrongReadFrac)
			}
			return x
		},
		call: func(p *sim.Proc, tr *trace.Trace, x op, val []byte) (err error) {
			switch x.kind {
			case 0:
				_, err = db.Read(p, tr, x.shard, x.row, x.strong)
			case 1:
				err = db.Commit(p, tr, x.shard, x.row, val)
			default:
				_, err = db.Query(p, tr, x.shard, x.row)
			}
			return err
		},
	}
}

// BigTableOps is the BigTable operation source: gets, puts and scans on a
// random tablet's Zipf-popular row.
func BigTableOps(env *platform.Env, db *bigtable.DB, mix BigTableMix) *Ops {
	return &Ops{
		env:      env,
		name:     "bigtable",
		platform: taxonomy.BigTable,
		weights:  []float64{mix.Gets, mix.Puts, mix.Scans},
		think:    time.Millisecond,
		draw: func(s *stream) op {
			// Fields are drawn in lexical order: tablet, row, kind.
			return op{shard: s.rng.Intn(db.NumTablets()), row: db.PickRow(), kind: s.pick.Next()}
		},
		call: func(p *sim.Proc, tr *trace.Trace, x op, val []byte) (err error) {
			switch x.kind {
			case 0:
				_, err = db.Get(p, tr, x.shard, x.row)
			case 1:
				err = db.Put(p, tr, x.shard, x.row, val)
			default:
				_, err = db.Scan(p, tr, x.shard, x.row)
			}
			return err
		},
	}
}

// queryKinds maps the BigQuery mix's operation kinds to query templates.
var queryKinds = [...]bigquery.Kind{bigquery.ScanAgg, bigquery.JoinQuery, bigquery.Report}

// BigQueryOps is the BigQuery operation source: one query of a template
// drawn from the mix, filtering at a random threshold.
func BigQueryOps(env *platform.Env, e *bigquery.Engine, mix BigQueryMix) *Ops {
	return &Ops{
		env:      env,
		name:     "bigquery",
		platform: taxonomy.BigQuery,
		weights:  []float64{mix.ScanAgg, mix.Join, mix.Report},
		think:    5 * time.Millisecond,
		stop:     e.Stop,
		draw: func(s *stream) op {
			// Fields are drawn in lexical order: threshold, kind.
			return op{shard: s.rng.Intn(900), kind: s.pick.Next()}
		},
		call: func(p *sim.Proc, tr *trace.Trace, x op, _ []byte) error {
			_, err := e.Run(p, tr, bigquery.Query{Kind: queryKinds[x.kind], Threshold: int64(x.shard)})
			return err
		},
	}
}
