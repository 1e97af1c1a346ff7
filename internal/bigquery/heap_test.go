package bigquery

import (
	"fmt"
	"runtime"
	"testing"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// TestLiveHeapFlatInsideRun reads the live heap while a deployment is still
// up: after K.Run drains the queries and before Close. Nothing the shuffle
// tier or the engine keeps may grow with the number of queries served. A
// dedup record kept for every finished shuffle call — each get's cached
// response pins its partial aggregate — grows by about 8 KiB per partial
// here, so 8x the queries would retain several MiB more. With several
// clients, more partials are in flight at once than the engine's free list
// may keep, so its cap must hold: the list pins at most that many.
func TestLiveHeapFlatInsideRun(t *testing.T) {
	for _, clients := range []int{1, 24} {
		t.Run(fmt.Sprintf("%d clients", clients), func(t *testing.T) {
			heapAfterRun := func(queries int) uint64 {
				env := platform.NewEnv(1, 0)
				cfg := smallConfig()
				cfg.Groups = 1024 // an 8 KiB partial per shard makes retention visible
				e, err := New(env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				running := clients
				for c := 0; c < clients; c++ {
					env.K.Go("client", func(p *sim.Proc) {
						for i := 0; i < queries; i++ {
							if _, err := e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500}); err != nil {
								t.Error(err)
								break
							}
						}
						if running--; running == 0 {
							e.Stop()
						}
					})
				}
				env.K.Run()
				if n, limit := len(e.freeGroups), e.maxFreeGroups(); n > limit || (clients > 1 && n < limit) {
					t.Fatalf("free list holds %d aggregates after %d queries on %d clients; its cap is %d", n, queries, clients, limit)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				runtime.KeepAlive(e)
				env.K.Close()
				return ms.HeapAlloc
			}
			const n = 16
			small := heapAfterRun(n)
			large := heapAfterRun(8 * n)
			t.Logf("live heap before Close: %d KiB after %d queries, %d KiB after %d", small>>10, n, large>>10, 8*n)
			if large > small+(1<<20) {
				t.Fatalf("live heap grew from %d KiB to %d KiB under 8x the queries: the shuffle tier retains per-query state",
					small>>10, large>>10)
			}
		})
	}
}
