package faults

// Nemesis windows: partition topologies, gray links and clock skew — the
// gray-failure shapes hyperscale operators actually see, as opposed to the
// clean whole-node crashes GenerateSchedule draws. Each window is a pair of
// events. Partition events carry their directed link sets, so one Partition
// event opens exactly one window that one matching Heal event (same label,
// same links) closes; FuzzNemesisSchedule pins that pairing.

import (
	"sort"
	"time"

	"hyperprof/internal/stats"
)

// crossLinks returns both directions of every link between a node of side a
// and a node of side b.
func crossLinks(a, b []string) []Link {
	links := make([]Link, 0, 2*len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			links = append(links, Link{From: x, To: y}, Link{From: y, To: x})
		}
	}
	return links
}

// partitionWindow pairs one Partition event with its Heal over the same
// links at the same label.
func partitionWindow(label string, links []Link, at, dur time.Duration) []Event {
	return []Event{
		{At: at, Kind: Partition, Target: label, Links: links},
		{At: at + dur, Kind: Heal, Target: label, Links: links},
	}
}

// splitBrain cuts the minority side off from the majority side in both
// directions over [at, at+dur) — the canonical quorum-loss partition. Links
// within each side stay healthy.
func splitBrain(minority, majority []string, at, dur time.Duration) []Event {
	return partitionWindow("partition/split", crossLinks(minority, majority), at, dur)
}

// ringPartition leaves each node able to reach only its ring neighbors over
// [at, at+dur): node i talks to i-1 and i+1 (mod n) and nobody else — the
// topology where every pair of non-neighbors disagrees about who is up while
// everyone is transitively connected.
func ringPartition(nodes []string, at, dur time.Duration) []Event {
	var links []Link
	n := len(nodes)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j-i == 1 || (i == 0 && j == n-1) {
				continue // ring neighbors stay connected
			}
			links = append(links, Link{From: nodes[i], To: nodes[j]}, Link{From: nodes[j], To: nodes[i]})
		}
	}
	return partitionWindow("partition/ring", links, at, dur)
}

// bridgePartition blocks sideA from sideB directly while both sides still
// reach the nodes left out of either side — the partial partition where
// the bridge sees the whole fleet healthy and each side sees the other dead.
func bridgePartition(sideA, sideB []string, at, dur time.Duration) []Event {
	return partitionWindow("partition/bridge", crossLinks(sideA, sideB), at, dur)
}

// grayLinkWindow injects an asymmetric limping link: messages from -> to
// pay extra delay and are lost with probability drop over [at, at+dur),
// while to -> from stays healthy — the failure mode that breaks detectors
// assuming reachability is symmetric.
func grayLinkWindow(from, to string, extra time.Duration, drop float64, at, dur time.Duration) []Event {
	links := []Link{{From: from, To: to}}
	label := "gray/" + from + "->" + to
	return []Event{
		{At: at, Kind: GrayLink, Target: label, Links: links, Extra: extra, Factor: drop},
		{At: at + dur, Kind: Heal, Target: label, Links: links},
	}
}

// targetPartition cuts one registered target off at the platform level over
// [at, at+dur): the opening event invokes the target's Partition action,
// the closing one its Heal. This is the partition form for components whose
// data path is not RPC-fronted (BigTable's tablet servers), where the netsim
// link plane cannot model the cut.
func targetPartition(target string, at, dur time.Duration) []Event {
	return []Event{
		{At: at, Kind: Partition, Target: target},
		{At: at + dur, Kind: Heal, Target: target},
	}
}

// clockSkewWindow skews the target's clock by offset, drifting at drift
// seconds per second, over [at, at+dur); the closing event clears the skew.
func clockSkewWindow(target string, offset time.Duration, drift float64, at, dur time.Duration) []Event {
	return []Event{
		{At: at, Kind: ClockSkew, Target: target, Extra: offset, Factor: drift},
		{At: at + dur, Kind: ClockSkew, Target: target},
	}
}

// NemesisConfig extends ScheduleConfig with the nemesis dimensions:
// partitions over a node set, one optional gray link, and clock skew on
// named clock targets.
type NemesisConfig struct {
	ScheduleConfig

	// Nodes are the netsim node names partitions and gray links draw from.
	Nodes []string
	// PartitionTargets name registered targets whose Partition/Heal actions
	// model the cut at the platform level. When Nodes has fewer than two
	// entries, partition windows isolate one random target each instead of
	// blocking link sets — the form platforms without an RPC-fronted data
	// path (BigTable) use.
	PartitionTargets []string
	// PartitionMTBF is the mean time between partition windows (exponential);
	// zero disables partition generation. PartitionMTTR is the mean window
	// duration, floored at the same minimum repair time as crashes.
	PartitionMTBF time.Duration
	PartitionMTTR time.Duration

	// GrayProb is the chance of one asymmetric gray-link window over the
	// horizon, with GrayExtra per-message delay and GrayDrop loss.
	GrayProb  float64
	GrayExtra time.Duration
	GrayDrop  float64

	// ClockTargets name the registered targets whose clocks may skew;
	// ClockSkewProb is the per-target chance of one skew window, with offset
	// uniform in [-ClockSkewMax, ClockSkewMax] and drift uniform in
	// [-ClockDriftMax, ClockDriftMax].
	ClockTargets  []string
	ClockSkewProb float64
	ClockSkewMax  time.Duration
	ClockDriftMax float64
}

// GenerateNemesisSchedule interleaves partition, gray-link and clock-skew
// windows with the crash/straggler/brownout schedule GenerateSchedule draws
// for the same config. Every Partition is paired with exactly one Heal over
// the same links, strictly later than its open (windows are floored at the
// minimum repair time and the horizon exceeds every open instant). The
// nemesis draws fork from an independent root, so enabling them never
// perturbs the crash schedule for a given seed, and equal configs replay
// byte-identically.
func GenerateNemesisSchedule(targets []string, cfg NemesisConfig) []Event {
	evs := GenerateSchedule(targets, cfg.ScheduleConfig)
	if cfg.Horizon <= 0 {
		return evs
	}
	root := stats.NewRNG(cfg.Seed ^ 0x4e454d45) // "NEME"

	// Partition windows: exponential arrivals like crashes, each picking a
	// topology and a shuffled node split (or, without a node set, isolating
	// one target through its platform-level Partition/Heal actions).
	prng := root.Fork()
	if cfg.PartitionMTBF > 0 && (len(cfg.Nodes) >= 2 || len(cfg.PartitionTargets) > 0) {
		mttr := cfg.PartitionMTTR
		if mttr < minRepair {
			mttr = minRepair
		}
		at := time.Duration(prng.Exp(float64(cfg.PartitionMTBF)))
		for at < cfg.Horizon {
			repair := time.Duration(prng.Exp(float64(mttr)))
			if repair < minRepair {
				repair = minRepair
			}
			end := at + repair
			if end > cfg.Horizon {
				end = cfg.Horizon
			}
			if len(cfg.Nodes) >= 2 {
				evs = append(evs, drawPartition(prng, cfg.Nodes, at, end-at)...)
			} else {
				target := cfg.PartitionTargets[prng.Intn(len(cfg.PartitionTargets))]
				evs = append(evs, targetPartition(target, at, end-at)...)
			}
			at = end + time.Duration(prng.Exp(float64(cfg.PartitionMTBF)))
		}
	}

	// One optional gray-link window on a random directed pair.
	grng := root.Fork()
	if cfg.GrayProb > 0 && len(cfg.Nodes) >= 2 && grng.Bool(cfg.GrayProb) {
		i := grng.Intn(len(cfg.Nodes))
		j := grng.Intn(len(cfg.Nodes) - 1)
		if j >= i {
			j++
		}
		start := time.Duration(grng.Float64() * float64(cfg.Horizon) * 0.5)
		dur := time.Duration(grng.Float64() * float64(cfg.Horizon) * 0.25)
		if dur < minRepair {
			dur = minRepair
		}
		if start+dur > cfg.Horizon {
			dur = cfg.Horizon - start
		}
		evs = append(evs, grayLinkWindow(cfg.Nodes[i], cfg.Nodes[j], cfg.GrayExtra, cfg.GrayDrop, start, dur)...)
	}

	// Per-target clock-skew windows, each on its own forked stream so adding
	// clock targets does not shift earlier targets' draws.
	crng := root.Fork()
	if cfg.ClockSkewProb > 0 {
		for _, name := range cfg.ClockTargets {
			trng := crng.Fork()
			if !trng.Bool(cfg.ClockSkewProb) {
				continue
			}
			offset := time.Duration((2*trng.Float64() - 1) * float64(cfg.ClockSkewMax))
			drift := (2*trng.Float64() - 1) * cfg.ClockDriftMax
			start := time.Duration(trng.Float64() * float64(cfg.Horizon) * 0.5)
			dur := time.Duration(trng.Float64() * float64(cfg.Horizon) * 0.25)
			if dur < minRepair {
				dur = minRepair
			}
			if start+dur > cfg.Horizon {
				dur = cfg.Horizon - start
			}
			evs = append(evs, clockSkewWindow(name, offset, drift, start, dur)...)
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

// drawPartition picks a partition topology and node split from the stream.
// Splits and rings need at least 2 and 4 nodes respectively; smaller fleets
// fall back to a split-brain.
func drawPartition(rng *stats.RNG, nodes []string, at, dur time.Duration) []Event {
	shuffled := append([]string(nil), nodes...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	topo := rng.Intn(3)
	switch {
	case topo == 1 && len(shuffled) >= 4:
		return ringPartition(shuffled, at, dur)
	case topo == 2 && len(shuffled) >= 3:
		// One bridge node; the rest split as evenly as the shuffle fell.
		rest := shuffled[1:]
		return bridgePartition(rest[:len(rest)/2], rest[len(rest)/2:], at, dur)
	default:
		k := 1 + rng.Intn((len(shuffled)+1)/2) // minority of up to half the fleet
		if k >= len(shuffled) {
			k = len(shuffled) - 1
		}
		return splitBrain(shuffled[:k], shuffled[k:], at, dur)
	}
}
