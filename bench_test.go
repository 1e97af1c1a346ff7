package hyperprof

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per paper table and figure (each regenerates the artifact and reports its
// headline numbers as custom metrics), plus the ablation benches for the
// repository's own design choices and microbenchmarks of the substrates.
//
// Run with: go test -bench=. -benchmem

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/compress"
	"hyperprof/internal/experiments"
	"hyperprof/internal/model"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/protowire"
	"hyperprof/internal/sha3"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// benchChar lazily runs one shared characterization for all figure benches;
// BenchmarkCharacterization measures the run itself.
var (
	benchOnce sync.Once
	benchCh   *experiments.Characterization
	benchErr  error
)

func benchFixture(b *testing.B) *experiments.Characterization {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultCharStudyConfig()
		cfg.Ops = experiments.PlatformOps{Spanner: 800, BigTable: 800, BigQuery: 120}
		benchCh, benchErr = cfg.Characterize()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCh
}

// BenchmarkCharacterization measures a full three-platform profiling run
// (the substrate under every characterization artifact).
func BenchmarkCharacterization(b *testing.B) {
	cfg := experiments.DefaultCharStudyConfig()
	cfg.Ops = experiments.PlatformOps{Spanner: 300, BigTable: 300, BigQuery: 40}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := cfg.Characterize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1StorageRatios regenerates Table 1.
func BenchmarkTable1StorageRatios(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(ch)
	}
	b.ReportMetric(rows[0].HDD, "spanner-hdd-ratio")
	b.ReportMetric(rows[1].HDD, "bigtable-hdd-ratio")
	b.ReportMetric(rows[2].HDD, "bigquery-hdd-ratio")
}

// BenchmarkFigure2EndToEnd regenerates the end-to-end time breakdown.
func BenchmarkFigure2EndToEnd(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var cpu, remote, io float64
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure2(ch)
		cpu, remote, io = experiments.Figure2Overall(ch)
	}
	b.ReportMetric(cpu*100, "overall-cpu-pct")
	b.ReportMetric(remote*100, "overall-remote-pct")
	b.ReportMetric(io*100, "overall-io-pct")
}

// BenchmarkFigure3CycleBreakdown regenerates the broad cycle split.
func BenchmarkFigure3CycleBreakdown(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform]map[taxonomy.Broad]float64
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure3(ch)
	}
	b.ReportMetric(fig[taxonomy.Spanner][taxonomy.CoreCompute]*100, "spanner-core-pct")
	b.ReportMetric(fig[taxonomy.BigQuery][taxonomy.SystemTax]*100, "bigquery-systax-pct")
}

// BenchmarkFigure4CoreCompute regenerates the core-compute breakdown.
func BenchmarkFigure4CoreCompute(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform]map[taxonomy.Category]float64
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure4(ch)
	}
	b.ReportMetric(fig[taxonomy.Spanner][taxonomy.Read]*100, "spanner-read-pct")
	b.ReportMetric(fig[taxonomy.BigQuery][taxonomy.Filter]*100, "bigquery-filter-pct")
}

// BenchmarkFigure5DatacenterTax regenerates the datacenter-tax breakdown.
func BenchmarkFigure5DatacenterTax(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform]map[taxonomy.Category]float64
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure5(ch)
	}
	b.ReportMetric(fig[taxonomy.BigTable][taxonomy.RPC]*100, "bigtable-rpc-pct")
	b.ReportMetric(fig[taxonomy.BigQuery][taxonomy.Compression]*100, "bigquery-compression-pct")
}

// BenchmarkFigure6SystemTax regenerates the system-tax breakdown.
func BenchmarkFigure6SystemTax(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform]map[taxonomy.Category]float64
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure6(ch)
	}
	b.ReportMetric(fig[taxonomy.BigQuery][taxonomy.STL]*100, "bigquery-stl-pct")
	b.ReportMetric(fig[taxonomy.Spanner][taxonomy.OperatingSystems]*100, "spanner-os-pct")
}

// BenchmarkTable6Microarch regenerates platform IPC/MPKI statistics.
func BenchmarkTable6Microarch(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var ipcBQ, ipcSP float64
	for i := 0; i < b.N; i++ {
		t6 := experiments.Table6(ch)
		ipcBQ = t6[taxonomy.BigQuery].IPC
		ipcSP = t6[taxonomy.Spanner].IPC
	}
	b.ReportMetric(ipcBQ, "bigquery-ipc")
	b.ReportMetric(ipcSP, "spanner-ipc")
}

// BenchmarkTable7MicroarchByCategory regenerates per-class IPC/MPKI stats.
func BenchmarkTable7MicroarchByCategory(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var bqCC float64
	for i := 0; i < b.N; i++ {
		bqCC = experiments.Table7(ch)[taxonomy.BigQuery][taxonomy.CoreCompute].IPC
	}
	b.ReportMetric(bqCC, "bigquery-cc-ipc")
}

// BenchmarkFigure9SyncOnChip regenerates the upper-bound sweep.
func BenchmarkFigure9SyncOnChip(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform][]experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure9(ch)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(experiments.SpeedupSweep) - 1
	b.ReportMetric(fig[taxonomy.Spanner][last].WithDep, "spanner-hwonly-bound")
	b.ReportMetric(fig[taxonomy.Spanner][last].WithoutDep, "spanner-codesign-bound")
	b.ReportMetric(fig[taxonomy.BigQuery][last].WithDep, "bigquery-hwonly-bound")
}

// BenchmarkFigure10Grouped regenerates the per-group sweep.
func BenchmarkFigure10Grouped(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	groups := 0
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure10(ch)
		if err != nil {
			b.Fatal(err)
		}
		groups = 0
		for _, p := range taxonomy.Platforms() {
			groups += len(fig[p])
		}
	}
	b.ReportMetric(float64(groups), "populated-groups")
}

// BenchmarkFigure13Features regenerates the invocation-model study.
func BenchmarkFigure13Features(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform][]experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure13(ch)
		if err != nil {
			b.Fatal(err)
		}
	}
	final := fig[taxonomy.Spanner][len(fig[taxonomy.Spanner])-1].Speedups
	b.ReportMetric(final[model.AsyncOnChip], "spanner-async")
	b.ReportMetric(final[model.ChainedOnChip], "spanner-chained")
	bqFinal := fig[taxonomy.BigQuery][len(fig[taxonomy.BigQuery])-1].Speedups
	b.ReportMetric(bqFinal[model.SyncOffChip], "bigquery-offchip")
}

// BenchmarkFigure14SetupSweep regenerates the setup-time study.
func BenchmarkFigure14SetupSweep(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform][]experiments.Fig14Point
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure14(ch)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := fig[taxonomy.Spanner]
	b.ReportMetric(pts[0].Speedups[model.SyncOnChip], "spanner-sync-fast-setup")
	b.ReportMetric(pts[len(pts)-1].Speedups[model.SyncOnChip], "spanner-sync-slow-setup")
}

// BenchmarkFigure15PriorAccels regenerates the published-accelerator study.
func BenchmarkFigure15PriorAccels(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var fig map[taxonomy.Platform][]experiments.Fig15Row
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure15(ch)
		if err != nil {
			b.Fatal(err)
		}
	}
	rows := fig[taxonomy.Spanner]
	b.ReportMetric(rows[len(rows)-1].Sync, "spanner-combined-sync")
	b.ReportMetric(rows[len(rows)-1].Chained, "spanner-combined-chained")
}

// BenchmarkTable8Validation regenerates the SoC model validation.
func BenchmarkTable8Validation(b *testing.B) {
	cfg := experiments.DefaultTable8Config()
	var diff float64
	for i := 0; i < b.N; i++ {
		t8, err := experiments.Table8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		diff = t8.DiffFrac
	}
	b.ReportMetric(diff*100, "model-vs-measured-pct")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationOverlapPrecedence quantifies the §4.1 precedence rule.
func BenchmarkAblationOverlapPrecedence(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var paper, cpuFirst float64
	for i := 0; i < b.N; i++ {
		paper, cpuFirst = experiments.OverlapPrecedenceAblation(ch, taxonomy.BigQuery)
	}
	b.ReportMetric(paper*100, "paper-precedence-cpu-pct")
	b.ReportMetric(cpuFirst*100, "cpufirst-precedence-cpu-pct")
}

// BenchmarkAblationChainImbalance sweeps chain imbalance.
func BenchmarkAblationChainImbalance(b *testing.B) {
	ratios := []float64{1, 2, 4, 8, 16}
	var pts []experiments.ChainImbalancePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.ChainImbalanceAblation(ratios)
	}
	b.ReportMetric(pts[0].ChainedVsAsync, "balanced-chained-vs-async")
	b.ReportMetric(pts[len(pts)-1].ChainedVsAsync, "imbalanced-chained-vs-async")
}

// BenchmarkAblationPayloadSweep sweeps off-chip payload size.
func BenchmarkAblationPayloadSweep(b *testing.B) {
	ch := benchFixture(b)
	sys, err := ch.DeriveSystem(taxonomy.BigQuery)
	if err != nil {
		b.Fatal(err)
	}
	sizes := []float64{0, 1e6, 1e8, 1e10}
	b.ResetTimer()
	var pts []experiments.PayloadSweepPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.PayloadSweepAblation(sys, sizes)
	}
	b.ReportMetric(pts[0].OffChip, "offchip-0B")
	b.ReportMetric(pts[len(pts)-1].OffChip, "offchip-10GB")
}

// BenchmarkAblationVariedSpeedups compares lockstep vs varied speedups.
func BenchmarkAblationVariedSpeedups(b *testing.B) {
	ch := benchFixture(b)
	sys, err := ch.DeriveSystem(taxonomy.Spanner)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res experiments.VariedSpeedupResult
	for i := 0; i < b.N; i++ {
		res = experiments.VariedSpeedupAblation(sys)
	}
	b.ReportMetric(res.Lockstep, "lockstep-8x")
	b.ReportMetric(res.Varied, "varied-4x-16x")
}

// BenchmarkAblationSamplingRate quantifies trace-sampling fidelity.
func BenchmarkAblationSamplingRate(b *testing.B) {
	ch := benchFixture(b)
	rates := []int{1, 10, 50}
	b.ResetTimer()
	var out map[int]float64
	for i := 0; i < b.N; i++ {
		out = experiments.SamplingRateAblation(ch, taxonomy.Spanner, rates)
	}
	b.ReportMetric(out[1]*100, "full-sample-cpu-pct")
	b.ReportMetric(out[50]*100, "one-in-50-cpu-pct")
}

// BenchmarkAblationChainHandoff sweeps the software chain's handoff cost.
func BenchmarkAblationChainHandoff(b *testing.B) {
	handoffs := []time.Duration{0, 500 * time.Nanosecond, 5 * time.Microsecond}
	var out map[time.Duration]time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.ChainHandoffAblation(1, 150, handoffs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(out[0].Microseconds()), "handoff-0-us")
	b.ReportMetric(float64(out[5*time.Microsecond].Microseconds()), "handoff-5us-us")
}

// --- Substrate microbenchmarks ---

// kernelBatch is the queue depth the kernel event benchmarks schedule up to
// before each drain, and kernelSpacing the virtual time between a batch's
// events. The depth is fixed, as benchDenseTimers keeps a standing
// population, so the queue, and with it an op's time and B/op, does not
// depend on -benchtime. A batch spans the timer wheel's ~4.2ms horizon, 64
// events to a bucket, so every batch reuses the buckets the first one grew.
const (
	kernelBatch   = 1 << 14
	kernelSpacing = 256 * time.Nanosecond
)

// kernelBatches runs b.N events through k: push(n) schedules a batch of n,
// then k.Run drains it, with only the halves selected by timePush and
// timeRun under the timer. One untimed batch first grows the queue to its
// standing depth. It returns how many events it scheduled, that batch
// included.
func kernelBatches(b *testing.B, k *sim.Kernel, push func(n int), timePush, timeRun bool) int {
	b.ReportAllocs()
	push(kernelBatch)
	k.Run()
	b.ResetTimer()
	for done := 0; done < b.N; done += kernelBatch {
		n := min(kernelBatch, b.N-done)
		if !timePush {
			b.StopTimer()
		}
		push(n)
		b.StartTimer()
		if !timeRun {
			b.StopTimer()
		}
		k.Run()
		b.StartTimer()
	}
	return kernelBatch + b.N
}

// BenchmarkSimKernelEvents measures raw event throughput of the DES kernel:
// schedule a batch of callbacks, then drain it. It rides ScheduleArg — the
// hoisted-callback fast path — so the whole schedule/dispatch cycle is
// allocation-free; the closure form (Schedule) is measured by
// BenchmarkSimKernelSchedule.
func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.New()
	n := 0
	tick := func(arg any) { *(arg.(*int))++ }
	push := func(size int) {
		for i := 0; i < size; i++ {
			k.ScheduleArg(time.Duration(i)*kernelSpacing, tick, &n)
		}
	}
	if kernelBatches(b, k, push, true, true) != n {
		b.Fatal("lost events")
	}
}

// benchDenseTimers is the dense-timer regime both dense benches share: a
// standing population of self-rescheduling timers spread across the wheel
// window, the event pattern fleet-scale open-loop runs produce. Each fire
// reschedules its successor at a pseudo-random dense offset, so the queue
// holds `population` events at all times and every op is one pop plus one
// push against that depth.
func benchDenseTimers(b *testing.B, k *sim.Kernel) {
	b.ReportAllocs()
	const population = 1 << 16
	type denseState struct {
		k         *sim.Kernel
		remaining int
		x         uint64
	}
	s := &denseState{k: k, remaining: b.N, x: 0x9E3779B97F4A7C15}
	var fire func(any)
	fire = func(arg any) {
		st := arg.(*denseState)
		if st.remaining <= 0 {
			return
		}
		st.remaining--
		st.x ^= st.x << 13
		st.x ^= st.x >> 7
		st.x ^= st.x << 17
		d := time.Duration(1 + st.x%uint64(4*time.Millisecond))
		st.k.ScheduleArg(d, fire, st)
	}
	for i := 0; i < population; i++ {
		s.x ^= s.x << 13
		s.x ^= s.x >> 7
		s.x ^= s.x << 17
		k.ScheduleArg(time.Duration(1+s.x%uint64(4*time.Millisecond)), fire, s)
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimKernelDenseTimers measures the dense-timer regime on the
// production tiered queue (timer wheel over the 4-ary heap).
func BenchmarkSimKernelDenseTimers(b *testing.B) {
	benchDenseTimers(b, sim.New())
}

// BenchmarkSimKernelDenseTimersHeapOnly is the same workload on the
// heap-only baseline queue; the ratio to BenchmarkSimKernelDenseTimers is
// the wheel's measured speedup.
func BenchmarkSimKernelDenseTimersHeapOnly(b *testing.B) {
	benchDenseTimers(b, sim.NewHeapOnly())
}

// BenchmarkSimKernelSchedule isolates the push half of the event loop:
// queue insertion cost without any dispatch. Each batch is drained outside
// the timer.
func BenchmarkSimKernelSchedule(b *testing.B) {
	k := sim.New()
	fn := func() {}
	push := func(size int) {
		for i := 0; i < size; i++ {
			k.Schedule(time.Duration(i)*kernelSpacing, fn)
		}
	}
	kernelBatches(b, k, push, true, false)
}

// BenchmarkSimKernelRun isolates the pop-and-dispatch half: each batch is
// scheduled outside the timer, then drained under it.
func BenchmarkSimKernelRun(b *testing.B) {
	k := sim.New()
	n := 0
	fn := func() { n++ }
	push := func(size int) {
		for i := 0; i < size; i++ {
			k.Schedule(time.Duration(i)*kernelSpacing, fn)
		}
	}
	if kernelBatches(b, k, push, false, true) != n {
		b.Fatal("lost events")
	}
}

// BenchmarkSimProcSwitch measures process park/resume round trips. The
// allocs/op report is the pin for the kernel fast path: a steady-state
// sleep/wake cycle must not allocate.
func BenchmarkSimProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimProcSpawn measures starting a process and running it to exit.
// Its allocs/op pins the spawn cost that every open-loop arrival pays at
// zero: the Proc, its resume channel and its goroutine's pre-bound start
// function come from the kernel's free list, and an arrival's own record and
// body come from its driver's, so an open-loop arrival allocates nothing in
// all. A coroutine scheme that costs more per process cannot land
// unnoticed. The Gosched lets each exited
// goroutine finish before the next spawn, so the runtime reuses it and
// allocs/op is exact.
func BenchmarkSimProcSpawn(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	body := func(p *sim.Proc) {}
	for i := 0; i < b.N; i++ {
		k.Go("bench", body)
		k.Run()
		runtime.Gosched()
	}
}

// BenchmarkSimQueueHandoff measures a blocking get round trip: Put hands an
// item to a parked getter, which takes it and parks again. Its allocs/op pins
// the handoff at zero, the wait every RPC server worker makes per request.
func BenchmarkSimQueueHandoff(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	q := sim.NewQueue[*int](k)
	item := new(int)
	k.Go("getter", func(p *sim.Proc) {
		for sim.GetQueue(p, q) != nil {
		}
	})
	k.Go("putter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(item)
			p.Sleep(time.Nanosecond)
		}
		q.Put(nil)
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkServerCallDedup measures one RPC through a Client to a server
// with duplicate suppression on: both transfers, the server's queue and
// worker, and the call's dedup record. Its allocs/op pins the path at zero:
// the server's call record comes from the network's free list and the
// worker's blocking get allocates nothing. Its B/op stays flat in b.N only
// because each dedup record settles with its call instead of accumulating.
func BenchmarkServerCallDedup(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	n := netsim.New(k, netsim.DefaultConfig())
	srv := netsim.NewServer(n.NewNode("srv", 0, 0, 1), 1)
	srv.Handle("op", func(p *sim.Proc, req netsim.Request) netsim.Response {
		return netsim.Response{Bytes: 32}
	})
	srv.SetDedup(true)
	srv.Start()
	from := n.NewNode("cli", 0, 0, 1)
	c := netsim.NewClient(netsim.Policy{}, 1)
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Call(p, from, srv, netsim.Request{Method: "op", Bytes: 64})
		}
		srv.Stop()
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkClientDeadlineCall measures one RPC through a Client under a
// deadline policy: the attempt runs in a helper process the caller waits on,
// with a deadline event armed beside it. Its allocs/op pins the path at zero:
// the policy's call and attempt records, the server's call record and the
// helper's Proc all come from free lists, and the helper's body is bound
// once per attempt record. The deadline is generous, so every attempt
// succeeds and its deadline event fires after it, on a record that event
// still holds.
func BenchmarkClientDeadlineCall(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	n := netsim.New(k, netsim.DefaultConfig())
	srv := netsim.NewServer(n.NewNode("srv", 0, 0, 1), 1)
	srv.Handle("op", func(p *sim.Proc, req netsim.Request) netsim.Response {
		return netsim.Response{Bytes: 32}
	})
	srv.SetDedup(true)
	srv.Start()
	from := n.NewNode("cli", 0, 0, 1)
	c := netsim.NewClient(netsim.Policy{Deadline: time.Millisecond}, 1)
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Call(p, from, srv, netsim.Request{Method: "op", Bytes: 64})
		}
		srv.Stop()
	})
	b.ResetTimer()
	k.Run()
}

// benchSketchValues feeds a fixed pseudo-random lognormal-ish latency stream
// to a Recorder — the record path every fleet-scale study rides.
func benchSketchValues(b *testing.B, r stats.Recorder) {
	b.ReportAllocs()
	x := uint64(0x9E3779B97F4A7C15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.Add(float64(1 + x%uint64(50*time.Millisecond)))
	}
}

// BenchmarkStatsSketchRecord measures the bounded-memory sketch's record
// path: steady state is a map increment on an occupied bucket.
func BenchmarkStatsSketchRecord(b *testing.B) {
	benchSketchValues(b, stats.NewSketch(0.01))
}

// BenchmarkStatsSummaryRecord is the exact-recorder baseline for the sketch
// bench: an append that grows with N, which is precisely what fleet scale
// cannot afford.
func BenchmarkStatsSummaryRecord(b *testing.B) {
	benchSketchValues(b, &stats.Summary{})
}

// BenchmarkSHA3 measures the from-scratch Keccak implementation.
func BenchmarkSHA3(b *testing.B) {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sha3.Sum256(buf)
	}
}

// BenchmarkProtowireMarshal measures the from-scratch protobuf encoder.
func BenchmarkProtowireMarshal(b *testing.B) {
	gen := protowire.NewGenerator(1, protowire.DefaultGenConfig())
	msgs := gen.Corpus(2, 64)
	var total int64
	for _, m := range msgs {
		total += int64(m.Size())
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			m.Marshal(nil)
		}
	}
}

// BenchmarkProtowireUnmarshal measures the decoder.
func BenchmarkProtowireUnmarshal(b *testing.B) {
	gen := protowire.NewGenerator(1, protowire.DefaultGenConfig())
	msgs := gen.Corpus(2, 64)
	wires := make([][]byte, len(msgs))
	var total int64
	for i, m := range msgs {
		wires[i] = m.Marshal(nil)
		total += int64(len(wires[i]))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range wires {
			if _, err := protowire.Unmarshal(msgs[j].Desc, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModelEvaluation measures one full model evaluation.
func BenchmarkModelEvaluation(b *testing.B) {
	sys := model.System{
		CPUTime: 1, DepTime: 0.5, F: 0.5, Bandwidth: 4e9,
		Components: []model.Component{
			{Name: "a", Time: 0.2, Accelerated: true, Speedup: 8, Sync: 1},
			{Name: "b", Time: 0.2, Accelerated: true, Speedup: 8, Chained: true},
			{Name: "c", Time: 0.2, Accelerated: true, Speedup: 8, Sync: 0},
			{Name: "d", Time: 0.2},
		},
	}
	var s float64
	for i := 0; i < b.N; i++ {
		s = sys.Speedup()
	}
	b.ReportMetric(s, "speedup")
}

// BenchmarkTraceBreakdown measures the §4.1 sweep-line categorization on a
// Spanner-shaped trace of 20 intervals, the size of a characterization
// Spanner trace: back-to-back CPU steps, a log write, and a replication
// wait that the last steps overlap. Its allocs/op must stay 0.
func BenchmarkTraceBreakdown(b *testing.B) {
	b.ReportAllocs()
	tr := trace.NewTracer(1)
	tc := tr.Start(taxonomy.Spanner, 0)
	steps := []time.Duration{73, 532, 71, 66, 86, 61, 109, 79, 53, 19, 43, 34, 134, 19, 149, 61, 116}
	at := time.Duration(0)
	for _, d := range steps {
		tc.Annotate(at, at+d*time.Microsecond, trace.CPU)
		at += d * time.Microsecond
	}
	tc.Annotate(at, at+80*time.Microsecond, trace.IO)
	tc.Annotate(at-300*time.Microsecond, at+3364*time.Microsecond, trace.Remote)
	at += 3364 * time.Microsecond
	tc.Annotate(at, at+time.Microsecond, trace.IO)
	tr.Finish(tc, at+20*time.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		breakdownSink = tc.ComputeBreakdown()
	}
}

// breakdownSink keeps BenchmarkTraceBreakdown's result live.
var breakdownSink trace.Breakdown

// --- Extension benches (§6.4 future work) ---

// BenchmarkExtensionChain3 regenerates the three-accelerator chained
// validation (protobuf -> compression -> SHA3).
func BenchmarkExtensionChain3(b *testing.B) {
	var diff, ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Chain3Experiment(1, 200)
		if err != nil {
			b.Fatal(err)
		}
		diff = r.DiffFrac
		ratio = r.Ratio
	}
	b.ReportMetric(diff*100, "model-vs-measured-pct")
	b.ReportMetric(ratio, "compression-ratio")
}

// BenchmarkExtensionPartialSync sweeps intermediate synchronization levels.
func BenchmarkExtensionPartialSync(b *testing.B) {
	ch := benchFixture(b)
	sys, err := ch.DeriveSystem(taxonomy.Spanner)
	if err != nil {
		b.Fatal(err)
	}
	gs := []float64{1, 0.75, 0.5, 0.25, 0}
	b.ResetTimer()
	var pts []experiments.PartialSyncPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.PartialSyncSweep(sys, gs)
	}
	b.ReportMetric(pts[0].Speedup, "fully-sync")
	b.ReportMetric(pts[len(pts)-1].Speedup, "fully-async")
}

// BenchmarkExtensionMixedPlacement ranks per-component placement penalties.
func BenchmarkExtensionMixedPlacement(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := ch.MixedPlacementStudy(taxonomy.BigQuery)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Penalty > worst {
				worst = r.Penalty
			}
		}
	}
	b.ReportMetric(worst*100, "worst-offchip-penalty-pct")
}

// BenchmarkCompress measures the from-scratch Snappy-format codec.
func BenchmarkCompress(b *testing.B) {
	gen := protowire.NewGenerator(1, protowire.DefaultGenConfig())
	var src []byte
	for _, m := range gen.Corpus(2, 64) {
		src = m.Marshal(src)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.Encode(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressEncode is the bench-gate guard for the allocation-free
// encoder path SSTable seals take: 1 MiB of incompressible bytes (the shape
// of BigTable's bootstrap rows) appended into a reused dst. Any allocation
// that creeps back into AppendEncode shows up in allocs/op.
func BenchmarkCompressEncode(b *testing.B) {
	rng := stats.NewRNG(1)
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	dst := make([]byte, 0, compress.MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = compress.AppendEncode(dst[:0], src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBigTableNew measures a DefaultConfig BigTable bring-up: cluster
// and DFS set-up and one base SSTable per tablet over the tablet's shared
// base index. The index is built and sealed once per process, so every
// iteration after the first times a cache-hit construction — what every
// BigTable arm after a process's first pays. It is the bench-gate guard for
// bootstrap staying free of per-DB rows and seals.
func BenchmarkBigTableNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bigtable.New(platform.NewEnv(1, 1), bigtable.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpannerNew measures a DefaultConfig Spanner bring-up on its
// recommended network: cluster and RPC-server set-up, and one bulk
// TieredStore load of the bootstrap row ids per machine, which fills each
// store's integer index and object slab in one pass. It is the bench-gate
// guard for that bulk load: about 7.9 MB and 4,300 allocs per call, where
// string row keys and string-keyed cache maps cost 16.7 MB and 74,461.
func BenchmarkSpannerNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := platform.NewEnv(1, 1)
		env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
		if _, err := spanner.New(env, spanner.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpannerCommit measures one commit on a fault-free DefaultConfig
// Spanner deployment, kernel run included: the leader's log append and
// durable write, one replication round to both followers, and the apply. Its
// allocs/op pins the commit path at 3: the value's copy in the leader's log,
// the round record and the one method value its followers share. The
// followers' first appends ride in the round record, their replies are shared
// values, and every process comes from the kernel's free list. Compaction is
// off, so the row is the commit path alone.
func BenchmarkSpannerCommit(b *testing.B) {
	env := platform.NewEnv(1, 1)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	cfg := spanner.DefaultConfig()
	cfg.CompactionEvery = 0
	db, err := spanner.New(env, cfg)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, cfg.RowBytes)
	var cerr error
	commit := func(p *sim.Proc) { cerr = db.Commit(p, nil, 0, 7, value) }
	run := func() {
		env.K.Go("client", commit)
		env.K.Run()
		if cerr != nil {
			b.Fatal(cerr)
		}
	}
	for range 64 {
		run() // warm the free lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkTieredStoreRead measures TieredStore.Read on one DefaultConfig
// Spanner machine's store: its 12,000 bootstrap rows (three groups of 4,000,
// keyed group<<32 | row) loaded at 1 KiB into Spanner's machine capacities,
// then one op reads a fixed sequence of 16,384 keys drawn with Spanner's
// row skew (a uniform group, a Zipf(1.1) row). RAM holds about 1,400 rows,
// so the reads mix RAM hits with SSD hits that promote and evict. It is the
// bench-gate guard for the store's key lookup, recency links and per-tier
// accounting at 0 allocs/op.
func BenchmarkTieredStoreRead(b *testing.B) {
	cfg := spanner.DefaultConfig()
	groups := []uint64{0, 3, 6} // the groups region 0's first machine holds
	ramR, ssdR, hddR := platform.PaperStorageRatio(taxonomy.Spanner)
	ram := int64(len(groups))*int64(cfg.RowsPerGroup)*cfg.RowBytes/32 + 1<<20
	s, err := storage.NewTieredStore(storage.Capacities{
		storage.RAM: ram, storage.SSD: ram * ssdR / ramR, storage.HDD: ram * hddR / ramR,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 0, len(groups)*cfg.RowsPerGroup)
	for _, g := range groups {
		for row := 0; row < cfg.RowsPerGroup; row++ {
			keys = append(keys, g<<32|uint64(row))
		}
	}
	if err := s.Load(keys, cfg.RowBytes); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	zipf := stats.NewZipf(rng.Fork(), cfg.RowsPerGroup, 1.1)
	reads := make([]uint64, 1<<14)
	for i := range reads {
		reads[i] = groups[rng.Intn(len(groups))]<<32 | uint64(zipf.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range reads {
			if _, _, err := s.Read(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBigQueryScanAgg measures one ScanAgg query on a DefaultConfig
// engine, kernel run included: 16 partitions scanned, filtered and
// partially aggregated by the columnar kernels, shuffled and merged. It is
// the bench-gate guard for the allocation-light shard path: partials and
// merge accumulators recycled through the engine's free list, one reused
// selection vector, one record per shuffle round carried by pointer in the
// put and get payloads, and stage-1 processes spawned only for workers that
// own partitions.
func BenchmarkBigQueryScanAgg(b *testing.B) {
	env := platform.NewEnv(1, 1)
	e, err := bigquery.New(env, bigquery.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var qerr error
	query := func(p *sim.Proc) {
		_, qerr = e.Run(p, nil, bigquery.Query{Kind: bigquery.ScanAgg, Threshold: 500})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.K.Go("client", query)
		env.K.Run()
		if qerr != nil {
			b.Fatal(qerr)
		}
	}
}

// BenchmarkDecompress measures decoding.
func BenchmarkDecompress(b *testing.B) {
	gen := protowire.NewGenerator(1, protowire.DefaultGenConfig())
	var src []byte
	for _, m := range gen.Corpus(2, 64) {
		src = m.Marshal(src)
	}
	enc, err := compress.Encode(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionLatencyStudy regenerates the latency-under-load curve.
func BenchmarkExtensionLatencyStudy(b *testing.B) {
	var pts []experiments.LatencyPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.StudyConfig{Seed: 1}.Latency([]float64{1000, 30000, 80000}, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].P99Seconds*1e3, "p99-ms-light")
	b.ReportMetric(pts[len(pts)-1].P99Seconds*1e3, "p99-ms-heavy")
}

// BenchmarkPipelineStudy regenerates the cross-platform pipeline study
// (BigTable ingest → BigQuery analytics → Spanner serving in one
// simulation) at a reduced size and reports the baseline arm's end-to-end
// latency as a custom metric.
func BenchmarkPipelineStudy(b *testing.B) {
	cfg := experiments.DefaultPipelineStudyConfig()
	cfg.Pipe = experiments.PipelineConfig{Records: 24, Batches: 3, Iterations: 2}
	cfg.Check.Seeds = 1
	var s *experiments.Pipeline
	for i := 0; i < b.N; i++ {
		var err error
		s, err = cfg.Pipeline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Row("baseline").EndToEndP50.Microseconds()), "e2e-p50-us")
	b.ReportMetric(float64(s.Row("faulted").Replays), "replays")
}

// BenchmarkExtensionAcceleratorPriority regenerates the priority ranking.
func BenchmarkExtensionAcceleratorPriority(b *testing.B) {
	ch := benchFixture(b)
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		rows, err := ch.AcceleratorPriority(taxonomy.Spanner)
		if err != nil {
			b.Fatal(err)
		}
		top = rows[0].Sensitivity
	}
	b.ReportMetric(top*100, "top-sensitivity-pct")
}

// BenchmarkExtensionChainScaling regenerates the chain-length study.
func BenchmarkExtensionChainScaling(b *testing.B) {
	var rows []experiments.ChainScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ChainScaling([]int{1, 2, 4, 8, 16})
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Sync, "sync-16-stages")
	b.ReportMetric(last.Chained, "chained-16-stages")
}

// BenchmarkAblationTieringPolicy compares RAM cache policies (§3's learned
// data-placement direction).
func BenchmarkAblationTieringPolicy(b *testing.B) {
	var res *experiments.TieringPolicyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.TieringPolicyAblation(1, 30000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RAMHitRatio["LRU"]*100, "lru-ram-hit-pct")
	b.ReportMetric(res.RAMHitRatio["TinyLFU"]*100, "tinylfu-ram-hit-pct")
}
