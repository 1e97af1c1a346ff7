package experiments

import (
	"fmt"
	"time"

	"hyperprof/internal/model"
	"hyperprof/internal/sim"
	"hyperprof/internal/soc"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file implements the ablation studies DESIGN.md calls out for the
// repository's own design choices.

// OverlapPrecedenceAblation compares the paper's remote>IO>CPU overlap
// precedence (§4.1) against a CPU-first precedence on the same traces,
// returning each rule's overall CPU fraction. It quantifies how much of the
// reported CPU share is an artifact of the categorization rule.
func OverlapPrecedenceAblation(ch *Characterization, p taxonomy.Platform) (paperCPU, cpuFirstCPU float64) {
	n := 0
	for _, t := range ch.Traces[p] {
		def := t.ComputeBreakdown()
		alt := t.BreakdownWithPrecedence([3]trace.Class{trace.CPU, trace.IO, trace.Remote})
		paperCPU += def.Frac(trace.CPU)
		cpuFirstCPU += alt.Frac(trace.CPU)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return paperCPU / float64(n), cpuFirstCPU / float64(n)
}

// ChainImbalancePoint is one imbalance ratio's outcome.
type ChainImbalancePoint struct {
	// Ratio is the accelerated-time ratio between the chain's slowest and
	// fastest component.
	Ratio float64
	// ChainedVsAsync is chained e2e divided by ideal-async e2e (1.0 means
	// chaining matches full asynchrony, the paper's <1% claim).
	ChainedVsAsync float64
}

// ChainImbalanceAblation sweeps how unbalanced the accelerator chain is and
// reports chained-vs-async degradation: balanced chains match asynchrony;
// one dominant component makes chaining no better than the bottleneck.
func ChainImbalanceAblation(ratios []float64) []ChainImbalancePoint {
	var out []ChainImbalancePoint
	for _, r := range ratios {
		sys := model.System{
			CPUTime: 1.0,
			Components: []model.Component{
				{Name: "fast", Time: 0.3, Accelerated: true, Speedup: 8 * r, Sync: 1},
				{Name: "slow", Time: 0.3, Accelerated: true, Speedup: 8, Sync: 1},
			},
		}
		chained := sys.Configure(model.ChainedOnChip, nil).AcceleratedE2E()
		async := sys.Configure(model.AsyncOnChip, nil).AcceleratedE2E()
		pt := ChainImbalancePoint{Ratio: r}
		if async > 0 {
			pt.ChainedVsAsync = chained / async
		}
		out = append(out, pt)
	}
	return out
}

// PayloadSweepPoint is one payload size's on-chip vs off-chip outcome.
type PayloadSweepPoint struct {
	Bytes   float64
	OnChip  float64
	OffChip float64
}

// PayloadSweepAblation sweeps offload payload size for a fixed system,
// showing the crossover where off-chip acceleration turns into a slowdown
// (the §6.3.2 BigQuery effect).
func PayloadSweepAblation(sys model.System, sizes []float64) []PayloadSweepPoint {
	var out []PayloadSweepPoint
	accel := sys.WithUniformSpeedup(Fig13Speedup)
	for _, b := range sizes {
		offBytes := map[string]float64{}
		for _, c := range accel.Components {
			offBytes[c.Name] = b
		}
		out = append(out, PayloadSweepPoint{
			Bytes:   b,
			OnChip:  accel.Configure(model.SyncOnChip, nil).Speedup(),
			OffChip: accel.Configure(model.SyncOffChip, offBytes).Speedup(),
		})
	}
	return out
}

// VariedSpeedupResult compares lockstep acceleration against varied
// per-component speedups with the same geometric mean (§6.4 notes the
// lockstep assumption as a limitation).
type VariedSpeedupResult struct {
	Lockstep float64
	Varied   float64
}

// VariedSpeedupAblation evaluates a derived system under a uniform 8x
// speedup versus alternating 4x/16x speedups (same geometric mean).
func VariedSpeedupAblation(sys model.System) VariedSpeedupResult {
	lock := sys.Configure(model.SyncOnChip, nil).WithUniformSpeedup(8)
	varied := sys.Configure(model.SyncOnChip, nil).Clone()
	for i := range varied.Components {
		if !varied.Components[i].Accelerated {
			continue
		}
		if i%2 == 0 {
			varied.Components[i].Speedup = 4
		} else {
			varied.Components[i].Speedup = 16
		}
	}
	return VariedSpeedupResult{Lockstep: lock.Speedup(), Varied: varied.Speedup()}
}

// SamplingRateAblation re-runs Figure 2 aggregation at several trace
// sampling rates and reports the overall CPU fraction per rate, quantifying
// the fidelity of 1/N sampling (the paper samples 1/1000).
func SamplingRateAblation(ch *Characterization, p taxonomy.Platform, rates []int) map[int]float64 {
	out := map[int]float64{}
	traces := ch.Traces[p]
	for _, rate := range rates {
		if rate < 1 {
			rate = 1
		}
		var cpu float64
		n := 0
		for i, t := range traces {
			if i%rate != 0 {
				continue
			}
			cpu += t.ComputeBreakdown().Frac(trace.CPU)
			n++
		}
		if n > 0 {
			out[rate] = cpu / float64(n)
		}
	}
	return out
}

// ChainHandoffAblation sweeps the software chain's per-element handoff cost
// on the SoC and reports measured chained time per cost, showing when
// shared-memory-style synchronization erases chaining's benefit.
func ChainHandoffAblation(seed uint64, n int, handoffs []time.Duration) (map[time.Duration]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: corpus size must be positive")
	}
	out := map[time.Duration]time.Duration{}
	for _, h := range handoffs {
		cfg := soc.DefaultConfig()
		cfg.HandoffOverhead = h
		k := sim.New()
		s := soc.New(k, cfg)
		ch := s.MeasureChained(soc.Corpus(seed, n))
		out[h] = ch.E2E
	}
	return out, nil
}

// TieringPolicyResult compares RAM cache policies under one access stream.
type TieringPolicyResult struct {
	// RAMHitRatio per policy name ("LRU", "TinyLFU").
	RAMHitRatio map[string]float64
	// PointReadMean is the modeled mean access time of the Zipf point
	// reads per policy (seconds); the scan pollution is excluded since it
	// misses to disk under any policy.
	PointReadMean map[string]float64
}

// TieringPolicyAblation explores §3's learned-data-placement direction: the
// same Zipf-skewed point-read stream with periodic scan pollution replayed
// against a plain-LRU tiered store and a TinyLFU-admission store. Frequency
// admission protects the hot head from scans, lifting RAM hits and cutting
// mean access time.
func TieringPolicyAblation(seed uint64, accesses int) (*TieringPolicyResult, error) {
	if accesses <= 0 {
		return nil, fmt.Errorf("experiments: accesses must be positive")
	}
	const (
		objects  = 4000
		objBytes = 4096
	)
	// SSD holds the full working set so the comparison isolates the RAM
	// policy: the margin is RAM-vs-SSD latency, not disk-miss noise from
	// cross-tier eviction interactions.
	caps := storage.Capacities{
		storage.RAM: objects * objBytes / 50, // RAM holds ~2% of objects
		storage.SSD: 2 * objects * objBytes,
		storage.HDD: 4 * objects * objBytes,
	}
	res := &TieringPolicyResult{RAMHitRatio: map[string]float64{}, PointReadMean: map[string]float64{}}
	for name, policy := range map[string]storage.Policy{
		"LRU": storage.LRUPolicy, "TinyLFU": storage.TinyLFUPolicy,
	} {
		st, err := storage.NewTieredStoreWithPolicy(caps, nil, policy)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < objects; i++ {
			if _, err := st.Write(i, objBytes); err != nil {
				return nil, err
			}
		}
		rng := stats.NewRNG(seed)
		zipf := stats.NewZipf(rng, objects, 1.2)
		var pointTime float64
		ramHits, points := 0, 0
		for i := 0; i < accesses; i++ {
			point := i%4 != 3
			var key uint64
			if point {
				key = uint64(zipf.Next())
				points++
			} else {
				key = uint64(i % objects) // sequential scan pollution
			}
			d, tier, err := st.Read(key)
			if err != nil {
				return nil, err
			}
			if point {
				pointTime += d.Seconds()
				if tier == storage.RAM {
					ramHits++
				}
			}
		}
		res.RAMHitRatio[name] = float64(ramHits) / float64(points)
		res.PointReadMean[name] = pointTime / float64(points)
	}
	return res, nil
}
