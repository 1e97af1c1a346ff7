package faults

import (
	"sort"
	"time"

	"hyperprof/internal/stats"
)

// ScheduleConfig parameterizes random fault-schedule generation. All rates
// are per-target; the generated schedule pairs every crash with a recovery so
// runs always end with the fleet healthy.
type ScheduleConfig struct {
	// Horizon is the virtual-time window faults are generated within.
	Horizon time.Duration
	// MTBF is the mean time between failures for one target (exponential
	// inter-arrival). Zero disables crash generation.
	MTBF time.Duration
	// MTTR is the mean time to recovery after a crash (exponential). Zero
	// means instant-ish recovery (a minimum floor is applied).
	MTTR time.Duration
	// StragglerProb is the chance, per generated fault, that it is a
	// straggler window instead of a crash.
	StragglerProb float64
	// StragglerFactor is the service-time multiplier for straggler windows
	// (values <= 1 disable straggler generation).
	StragglerFactor float64
	// NetDegradeProb is the chance of one network brown-out window over the
	// horizon: a GrayLink event over every directed link between NetNodes,
	// each paying NetExtraDelay per message and losing messages with
	// probability NetDropProb. Without at least two NetNodes there is no
	// window.
	NetDegradeProb float64
	NetExtraDelay  time.Duration
	NetDropProb    float64
	NetNodes       []string
	// Seed drives every draw; equal seeds yield identical schedules.
	Seed uint64
}

// minRepair is the floor applied to repair times so crash/recover pairs never
// collapse onto the same instant.
const minRepair = time.Millisecond

// GenerateSchedule builds a deterministic fault schedule for the named
// targets. Each target gets an independent exponential crash arrival process
// (forked from the config seed, so adding targets does not shift earlier
// targets' draws); each crash or straggler window is paired with the matching
// recovery event inside the horizon. The optional brown-out window draws from
// the fork after every target's, so it never shifts a crash or straggler.
// Events are returned sorted by time with target name as the tiebreaker.
func GenerateSchedule(targets []string, cfg ScheduleConfig) []Event {
	var evs []Event
	if cfg.Horizon <= 0 {
		return evs
	}
	root := stats.NewRNG(cfg.Seed)
	mttr := cfg.MTTR
	if mttr < minRepair {
		mttr = minRepair
	}
	for _, name := range targets {
		rng := root.Fork()
		if cfg.MTBF <= 0 {
			continue
		}
		at := time.Duration(rng.Exp(float64(cfg.MTBF)))
		for at < cfg.Horizon {
			repair := time.Duration(rng.Exp(float64(mttr)))
			if repair < minRepair {
				repair = minRepair
			}
			end := at + repair
			if end > cfg.Horizon {
				end = cfg.Horizon
			}
			if cfg.StragglerProb > 0 && cfg.StragglerFactor > 1 && rng.Bool(cfg.StragglerProb) {
				evs = append(evs,
					Event{At: at, Kind: Straggler, Target: name, Factor: cfg.StragglerFactor},
					Event{At: end, Kind: Straggler, Target: name, Factor: 1})
			} else {
				evs = append(evs,
					Event{At: at, Kind: Crash, Target: name},
					Event{At: end, Kind: Recover, Target: name})
			}
			at = end + time.Duration(rng.Exp(float64(cfg.MTBF)))
		}
	}
	if cfg.NetDegradeProb > 0 && len(cfg.NetNodes) >= 2 {
		rng := root.Fork()
		if rng.Bool(cfg.NetDegradeProb) {
			start := time.Duration(rng.Float64() * float64(cfg.Horizon) * 0.5)
			end := start + time.Duration(rng.Float64()*float64(cfg.Horizon)*0.25)
			if end > cfg.Horizon {
				end = cfg.Horizon
			}
			links := meshLinks(cfg.NetNodes)
			// The window closes with a zero GrayLink rather than a Heal, so a
			// Partition block on one of its links outlives it.
			evs = append(evs,
				Event{At: start, Kind: GrayLink, Target: "brownout", Links: links, Extra: cfg.NetExtraDelay, Factor: cfg.NetDropProb},
				Event{At: end, Kind: GrayLink, Target: "brownout-end", Links: links})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Target < evs[j].Target
	})
	return evs
}

// meshLinks returns every directed link between two distinct nodes, in node
// order.
func meshLinks(nodes []string) []Link {
	links := make([]Link, 0, len(nodes)*(len(nodes)-1))
	for _, from := range nodes {
		for _, to := range nodes {
			if from != to {
				links = append(links, Link{From: from, To: to})
			}
		}
	}
	return links
}
