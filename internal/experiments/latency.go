package experiments

import (
	"fmt"
	"strings"

	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/spanner"
	"hyperprof/internal/workload"
)

// This file implements the latency-under-load study: open-loop Poisson
// arrivals against a fresh Spanner deployment per offered rate, yielding
// the p50/p99 latency curve behind the databases' "stricter SLOs" (§5.6).

// LatencyPoint is one offered-load level's latency outcome.
type LatencyPoint struct {
	RatePerSec float64
	P50Seconds float64
	P99Seconds float64
}

// latencyUnit is one offered-load point.
type latencyUnit struct {
	Rate float64 `json:"rate"`
	Ops  int     `json:"ops"`
}

// latencyKind runs offered-load points on either backend.
var latencyKind = unitKind[latencyUnit, LatencyPoint]{
	name: "latency/point",
	run: func(cfg StudyConfig, u latencyUnit) (LatencyPoint, error) {
		return runLatencyPoint(cfg.Seed, u.Rate, u.Ops)
	},
}

// runLatencyPoint drives one fresh Spanner deployment at one offered rate.
func runLatencyPoint(seed uint64, rate float64, opsPerPoint int) (LatencyPoint, error) {
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	db, err := spanner.New(env, spanner.DefaultConfig())
	if err != nil {
		return LatencyPoint{}, err
	}
	res := workload.SpannerOpenLoop(env, db, workload.DefaultSpannerMix(), rate, opsPerPoint)
	env.K.Run()
	if err := res.Err(); err != nil {
		return LatencyPoint{}, err
	}
	return LatencyPoint{
		RatePerSec: rate,
		P50Seconds: res.Latencies.Quantile(0.5),
		P99Seconds: res.Latencies.Quantile(0.99),
	}, nil
}

// Latency runs the Spanner open-loop workload at each offered rate
// (operations per second of virtual time), building a fresh deployment per
// point so the curve is not contaminated by carry-over queueing. The points
// are independent simulations, so they fan out over the study's configured
// backend and parallelism, and the curve comes back in rate order
// regardless of completion order.
func (cfg StudyConfig) Latency(rates []float64, opsPerPoint int) ([]LatencyPoint, error) {
	if opsPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: opsPerPoint must be positive")
	}
	units := make([]latencyUnit, len(rates))
	for i, rate := range rates {
		units[i] = latencyUnit{Rate: rate, Ops: opsPerPoint}
	}
	return runUnits(cfg, latencyKind, units)
}

// RenderLatency renders a latency-under-load curve.
func RenderLatency(points []LatencyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Latency under load (Spanner, open-loop Poisson arrivals):\n")
	fmt.Fprintf(&b, "  %12s %10s %10s\n", "rate (ops/s)", "p50 (ms)", "p99 (ms)")
	for _, pt := range points {
		fmt.Fprintf(&b, "  %12.0f %10.2f %10.2f\n", pt.RatePerSec, pt.P50Seconds*1e3, pt.P99Seconds*1e3)
	}
	return b.String()
}
