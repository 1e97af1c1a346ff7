package storage

import (
	"fmt"

	"hyperprof/internal/taxonomy"
)

// Inventory aggregates per-platform storage ownership across the fleet, the
// accounting behind Table 1's storage-to-storage ratios. Production derives
// these from internal logging over a week; here they derive from the
// capacities each platform's servers are provisioned with.
type Inventory struct {
	owned map[taxonomy.Platform]Capacities
}

// NewInventory creates an empty inventory.
func NewInventory() *Inventory {
	return &Inventory{owned: map[taxonomy.Platform]Capacities{}}
}

// AddServer records that platform owns one server with the given capacities.
func (inv *Inventory) AddServer(p taxonomy.Platform, caps Capacities) {
	inv.AddServers(p, caps, 1)
}

// AddServers records n identical servers.
func (inv *Inventory) AddServers(p taxonomy.Platform, caps Capacities, n int) {
	cur := inv.owned[p]
	if cur == nil {
		cur = Capacities{}
		inv.owned[p] = cur
	}
	for _, t := range Tiers() {
		cur[t] += caps[t] * int64(n)
	}
}

// AddStore records a TieredStore's configured capacities.
func (inv *Inventory) AddStore(p taxonomy.Platform, s *TieredStore) {
	inv.AddServer(p, Capacities{RAM: s.Capacity(RAM), SSD: s.Capacity(SSD), HDD: s.Capacity(HDD)})
}

// Ratios returns the platform's RAM:SSD:HDD ratio normalized to RAM = 1
// (the presentation of Table 1). It returns zeros when the platform owns no
// RAM.
func (inv *Inventory) Ratios(p taxonomy.Platform) (ram, ssd, hdd float64) {
	caps := inv.owned[p]
	if caps == nil || caps[RAM] == 0 {
		return 0, 0, 0
	}
	base := float64(caps[RAM])
	return 1, float64(caps[SSD]) / base, float64(caps[HDD]) / base
}

// RatioString renders the Table 1 cell, e.g. "1:16:164".
func (inv *Inventory) RatioString(p taxonomy.Platform) string {
	ram, ssd, hdd := inv.Ratios(p)
	if ram == 0 {
		return "-"
	}
	return fmt.Sprintf("1:%.0f:%.0f", ssd, hdd)
}
