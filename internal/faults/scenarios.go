package faults

import "time"

// RetryStorm is the canned overload trigger the overload study pairs with
// open-loop workloads: a brownout multiplying the named servers' service
// times by slowFactor over [at, at+dur), compounded by a flash crowd
// surging the tenant's offered load by rateMult over the same window (no
// tenant, no surge; no servers, the flash crowd alone). Whether the system
// recovers after both clear depends entirely on the overload control
// plane — with naive eager retries the amplified load keeps the queues
// saturated forever, the metastable failure. Each server's pair of events
// comes in server order, then the tenant's.
func RetryStorm(servers []string, tenant string, at, dur time.Duration, slowFactor, rateMult float64) []Event {
	evs := make([]Event, 0, 2*len(servers)+2)
	for _, srv := range servers {
		evs = append(evs,
			Event{At: at, Kind: Straggler, Target: srv, Factor: slowFactor},
			Event{At: at + dur, Kind: Straggler, Target: srv, Factor: 1},
		)
	}
	if tenant != "" {
		evs = append(evs,
			Event{At: at, Kind: RateSurge, Target: tenant, Factor: rateMult},
			Event{At: at + dur, Kind: RateSurge, Target: tenant, Factor: 1},
		)
	}
	return evs
}
