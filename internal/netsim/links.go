package netsim

import (
	"sort"
	"time"

	"hyperprof/internal/stats"
)

// This file is the network's fault plane: extra delay, loss probability, or
// a full block injected on individual directed (from, to) node pairs. It is
// the only one: a network-wide brown-out is a gray fault set on every
// directed link (NodeNames lists the endpoints).
//
// Semantics, chosen to model gray failures rather than clean outages:
//
//   - Link faults are directed. Blocking a->b leaves b->a healthy, which is
//     exactly the asymmetric reachability ("A hears B, B cannot hear A")
//     that breaks naive failure detectors.
//   - Request-direction faults surface before the handler runs: a blocked
//     link returns ErrLinkBlocked and a lossy link ErrNetDropped after one
//     request transfer.
//   - Response-direction faults are the gray half: the handler has already
//     executed, so a blocked or lossy reverse link loses only the
//     acknowledgment. The caller sees an error for work that happened —
//     the indeterminate-outcome case the safety checker must tolerate.
//   - Setting a link's gray parameters replaces the previous ones (never
//     stacks), and leaves a full block in place.
//
// Determinism: each directed link draws losses from its own RNG stream
// seeded from fnv64(from, to) XOR the network's link seed, so the stream a
// link uses depends only on its endpoints and the configured seed — never on
// the order links were faulted in.

// linkKey identifies one directed (from, to) node pair by node name.
type linkKey struct{ from, to string }

// linkFault is the injected fault state of one directed link. The zero
// extra/drop/blocked state (after HealLink) is kept in the map so the link's
// RNG stream survives across fault windows.
type linkFault struct {
	extra   time.Duration
	drop    float64
	blocked bool
	rng     *stats.RNG
}

// ErrLinkBlocked is returned when a message's directed link is fully blocked
// by an injected partition. Like ErrNetDropped it surfaces after one
// transfer time (connection-reset semantics), so callers never hang on a
// partitioned link.
var ErrLinkBlocked = errLinkBlocked{}

type errLinkBlocked struct{}

func (errLinkBlocked) Error() string { return "netsim: link blocked by partition" }

// SetLinkSeed sets the base seed the per-link RNG streams derive from. Call
// it before the first SetLinkFault; links faulted earlier keep the streams
// they already derived.
func (n *Network) SetLinkSeed(seed uint64) { n.linkSeed = seed }

// fnvLink hashes a directed link's endpoints (FNV-1a over from, a
// separator, to) for per-link RNG stream derivation.
func fnvLink(from, to string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * prime
	}
	return h
}

// link returns the fault entry for a directed link, creating it (with its
// deterministic RNG stream) on first use. It returns nil if either endpoint
// name is unknown to this network.
func (n *Network) link(from, to string) *linkFault {
	if n.nodesByName[from] == nil || n.nodesByName[to] == nil {
		return nil
	}
	if n.links == nil {
		n.links = map[linkKey]*linkFault{}
	}
	k := linkKey{from, to}
	lf := n.links[k]
	if lf == nil {
		lf = &linkFault{rng: stats.NewRNG(fnvLink(from, to) ^ n.linkSeed)}
		n.links[k] = lf
	}
	return lf
}

// SetLinkFault injects a gray fault on the directed link from -> to: every
// message crossing it pays extra delay on top of the transfer cost and is
// lost with probability drop. Calling it again replaces the previous
// parameters (never stacks); SetLinkFault(from, to, 0, 0) clears them and
// keeps a BlockLink block. It reports whether both endpoint names are known;
// an unknown name injects nothing.
func (n *Network) SetLinkFault(from, to string, extra time.Duration, drop float64) bool {
	lf := n.link(from, to)
	if lf == nil {
		return false
	}
	if extra < 0 {
		extra = 0
	}
	if drop < 0 {
		drop = 0
	}
	if drop > 1 {
		drop = 1
	}
	lf.extra = extra
	lf.drop = drop
	return true
}

// BlockLink fully blocks the directed link from -> to: every message
// crossing it is lost (ErrLinkBlocked after one transfer time). It reports
// whether both endpoint names are known.
func (n *Network) BlockLink(from, to string) bool {
	lf := n.link(from, to)
	if lf == nil {
		return false
	}
	lf.blocked = true
	return true
}

// HealLink clears every injected fault on the directed link. The link's RNG
// stream is kept, so alternating fault/heal windows stay on one
// deterministic stream.
func (n *Network) HealLink(from, to string) bool {
	lf := n.link(from, to)
	if lf == nil {
		return false
	}
	lf.extra, lf.drop, lf.blocked = 0, 0, false
	return true
}

// LinkBlocked reports whether the directed link from -> to is currently
// fully blocked.
func (n *Network) LinkBlocked(from, to string) bool {
	if len(n.links) == 0 {
		return false
	}
	lf := n.links[linkKey{from, to}]
	return lf != nil && lf.blocked
}

// Reachable reports whether two nodes can exchange messages in both
// directions — no full block either way. Gray links (slow or lossy but not
// blocked) still count as reachable: a limping link must not trip
// partition-recovery logic that only asymmetric blocks justify.
func (n *Network) Reachable(a, b *Node) bool {
	if a == b || len(n.links) == 0 {
		return true
	}
	return !n.LinkBlocked(a.Name, b.Name) && !n.LinkBlocked(b.Name, a.Name)
}

// NodeNames returns the names of the network's nodes, sorted: the endpoint
// set a network-wide fault covers.
func (n *Network) NodeNames() []string {
	names := make([]string, 0, len(n.nodesByName))
	for name := range n.nodesByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// linkBlocked is the message-path form of LinkBlocked: local messages never
// cross the fault plane.
func (n *Network) linkBlocked(from, to *Node) bool {
	if from == to || len(n.links) == 0 {
		return false
	}
	lf := n.links[linkKey{from.Name, to.Name}]
	return lf != nil && lf.blocked
}

// linkDrop draws the per-link loss decision for one directed message,
// counting losses in Dropped.
func (n *Network) linkDrop(from, to *Node) bool {
	if from == to || len(n.links) == 0 {
		return false
	}
	lf := n.links[linkKey{from.Name, to.Name}]
	if lf == nil || lf.drop <= 0 {
		return false
	}
	if lf.rng.Bool(lf.drop) {
		n.Dropped++
		n.m.drops.Inc()
		return true
	}
	return false
}
