package profile

import (
	"math"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
)

var testMicro = Micro{IPC: 1.0, BR: 5, L1I: 15, L2I: 8, LLC: 1, ITLB: 0.5, DTLBLD: 2}

// totalCPU returns the total profiled CPU time for a platform.
func totalCPU(p *Profiler, platform taxonomy.Platform) time.Duration {
	var total time.Duration
	p.EachCategoryCPU(platform, func(_ taxonomy.Category, cpu time.Duration) { total += cpu })
	return total
}

func TestExactAccountingTotals(t *testing.T) {
	p := New(nil, 1)
	p.Record(Work{Platform: taxonomy.Spanner, Function: "snappy.Compress", Duration: 30 * time.Millisecond, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "stubby.Call", Duration: 70 * time.Millisecond, Micro: testMicro})
	if got := totalCPU(p, taxonomy.Spanner); got != 100*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
	if got := totalCPU(p, taxonomy.BigQuery); got != 0 {
		t.Fatalf("other platform total = %v", got)
	}
}

func TestZeroAndNegativeDurationIgnored(t *testing.T) {
	p := New(nil, 1)
	p.Record(Work{Platform: taxonomy.Spanner, Function: "x", Duration: 0})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "x", Duration: -time.Second})
	if totalCPU(p, taxonomy.Spanner) != 0 {
		t.Fatal("zero-duration work recorded")
	}
}

func TestBroadBreakdown(t *testing.T) {
	p := New(nil, 1)
	c := p.Classifier()
	c.Register("myplat.read", taxonomy.Read)
	p.Record(Work{Platform: taxonomy.Spanner, Function: "myplat.read", Duration: 50 * time.Millisecond, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "snappy.Compress", Duration: 30 * time.Millisecond, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "syscall.read", Duration: 20 * time.Millisecond, Micro: testMicro})
	b := p.BroadBreakdown(taxonomy.Spanner)
	if math.Abs(b[taxonomy.CoreCompute]-0.5) > 1e-9 {
		t.Errorf("core = %v", b[taxonomy.CoreCompute])
	}
	if math.Abs(b[taxonomy.DatacenterTax]-0.3) > 1e-9 {
		t.Errorf("dct = %v", b[taxonomy.DatacenterTax])
	}
	if math.Abs(b[taxonomy.SystemTax]-0.2) > 1e-9 {
		t.Errorf("st = %v", b[taxonomy.SystemTax])
	}
}

func TestCategoryBreakdown(t *testing.T) {
	p := New(nil, 1)
	p.Record(Work{Platform: taxonomy.BigQuery, Function: "snappy.Uncompress", Duration: 60 * time.Millisecond, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.BigQuery, Function: "proto.Decode", Duration: 40 * time.Millisecond, Micro: testMicro})
	cb := p.CategoryBreakdown(taxonomy.BigQuery, taxonomy.DatacenterTax)
	if math.Abs(cb[taxonomy.Compression]-0.6) > 1e-9 || math.Abs(cb[taxonomy.Protobuf]-0.4) > 1e-9 {
		t.Fatalf("breakdown = %v", cb)
	}
	if len(p.CategoryBreakdown(taxonomy.BigQuery, taxonomy.SystemTax)) != 0 {
		t.Fatal("unexpected system tax categories")
	}
}

func TestPlatformStatsIPCAndMPKI(t *testing.T) {
	p := New(nil, 1) // default 2 GHz
	p.Record(Work{Platform: taxonomy.BigTable, Function: "f", Duration: time.Second, Micro: testMicro})
	s := p.PlatformStats(taxonomy.BigTable)
	if math.Abs(s.IPC-1.0) > 1e-9 {
		t.Errorf("IPC = %v", s.IPC)
	}
	if math.Abs(s.BR-5) > 1e-9 || math.Abs(s.DTLBLD-2) > 1e-9 {
		t.Errorf("MPKIs = %+v", s.Micro)
	}
	if s.CPU != time.Second {
		t.Errorf("cpu = %v", s.CPU)
	}
}

func TestStatsCycleWeightedAggregation(t *testing.T) {
	p := New(nil, 1)
	// Equal durations, different IPCs: aggregate IPC is the cycle-weighted
	// mean (1.0+2.0)/2 = 1.5 because cycles are equal.
	p.Record(Work{Platform: taxonomy.Spanner, Function: "a", Duration: time.Second, Micro: Micro{IPC: 1.0, BR: 10}})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "b", Duration: time.Second, Micro: Micro{IPC: 2.0, BR: 1}})
	s := p.PlatformStats(taxonomy.Spanner)
	if math.Abs(s.IPC-1.5) > 1e-9 {
		t.Errorf("aggregate IPC = %v, want 1.5", s.IPC)
	}
	// MPKI must be instruction-weighted: (1e9*10 + 2e9*1)/(3e9) per kilo.
	wantBR := (1e9*2*10 + 2e9*2*1) / (3e9 * 2)
	if math.Abs(s.BR-wantBR) > 1e-9 {
		t.Errorf("aggregate BR = %v, want %v", s.BR, wantBR)
	}
}

func TestBroadStats(t *testing.T) {
	p := New(nil, 1)
	c := p.Classifier()
	c.Register("plat.scan", taxonomy.Filter)
	p.Record(Work{Platform: taxonomy.BigQuery, Function: "plat.scan", Duration: time.Second, Micro: Micro{IPC: 1.4, BR: 2}})
	p.Record(Work{Platform: taxonomy.BigQuery, Function: "proto.Encode", Duration: time.Second, Micro: Micro{IPC: 1.0, BR: 4}})
	bs := p.BroadStats(taxonomy.BigQuery)
	if math.Abs(bs[taxonomy.CoreCompute].IPC-1.4) > 1e-9 {
		t.Errorf("core IPC = %v", bs[taxonomy.CoreCompute].IPC)
	}
	if math.Abs(bs[taxonomy.DatacenterTax].IPC-1.0) > 1e-9 {
		t.Errorf("dct IPC = %v", bs[taxonomy.DatacenterTax].IPC)
	}
	if _, ok := bs[taxonomy.SystemTax]; ok {
		t.Error("unexpected system tax stats")
	}
}

func TestJitterPreservesMeans(t *testing.T) {
	p := New(nil, 7, WithJitter(0.2))
	for i := 0; i < 5000; i++ {
		p.Record(Work{Platform: taxonomy.BigTable, Function: "f", Duration: time.Millisecond, Micro: testMicro})
	}
	s := p.PlatformStats(taxonomy.BigTable)
	if math.Abs(s.IPC-1.0) > 0.02 {
		t.Errorf("jittered IPC mean = %v", s.IPC)
	}
	if math.Abs(s.BR-5) > 0.2 {
		t.Errorf("jittered BR mean = %v", s.BR)
	}
}

func TestTopFunctions(t *testing.T) {
	p := New(nil, 1)
	p.Record(Work{Platform: taxonomy.Spanner, Function: "hot", Duration: 3 * time.Second, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "warm", Duration: 2 * time.Second, Micro: testMicro})
	p.Record(Work{Platform: taxonomy.Spanner, Function: "cold", Duration: 1 * time.Second, Micro: testMicro})
	top := p.TopFunctions(taxonomy.Spanner, 2)
	if len(top) != 2 || top[0].Function != "hot" || top[1].Function != "warm" {
		t.Fatalf("top = %+v", top)
	}
	all := p.TopFunctions(taxonomy.Spanner, 0)
	if len(all) != 3 {
		t.Fatalf("all = %d", len(all))
	}
}

func TestTopFunctionsDeterministicTieBreak(t *testing.T) {
	p := New(nil, 1)
	for _, fn := range []string{"zeta", "alpha", "mid"} {
		p.Record(Work{Platform: taxonomy.Spanner, Function: fn, Duration: time.Second, Micro: testMicro})
	}
	top := p.TopFunctions(taxonomy.Spanner, 3)
	if top[0].Function != "alpha" || top[1].Function != "mid" || top[2].Function != "zeta" {
		t.Fatalf("tie-break order: %+v", top)
	}
}

func TestEmptyPlatformStats(t *testing.T) {
	p := New(nil, 1)
	s := p.PlatformStats(taxonomy.BigQuery)
	if s.IPC != 0 || s.CPU != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	if len(p.BroadBreakdown(taxonomy.BigQuery)) != 0 {
		t.Fatal("empty breakdown should have no entries")
	}
}
