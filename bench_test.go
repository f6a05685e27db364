package sipt

// Repository-level benchmarks: one per paper table/figure (exercising
// the exact harness that regenerates it, on a reduced app set and trace
// length so `go test -bench=.` stays tractable) plus micro-benchmarks
// on the simulator's hot paths. cmd/siptbench runs the full-size
// versions.

import (
	"context"
	"math/rand"
	"testing"

	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/exp"
	"sipt/internal/memaddr"
	"sipt/internal/predictor"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/tlb"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// benchApps is the reduced application set for figure benchmarks: one
// huge-page streamer, one bad-speculation app, one latency-sensitive
// app, one big-data app.
var benchApps = []string{"libquantum", "calculix", "h264ref", "ycsb"}

const benchRecords = 30_000

func benchRunner() *exp.Runner {
	return exp.NewRunner(exp.Options{
		Records: benchRecords,
		Seed:    1,
		Apps:    benchApps,
		Workers: 1,
	})
}

// benchExperiment drives one experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := benchRunner() // fresh cache: measure the real work
		tables, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTab1(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkTab2(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkTab3(b *testing.B)  { benchExperiment(b, "tab3") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// Ablations and extensions (beyond the paper's figures).
func BenchmarkAblPredictor(b *testing.B) { benchExperiment(b, "abl-pred") }
func BenchmarkAblIDB(b *testing.B)       { benchExperiment(b, "abl-idb") }
func BenchmarkAblSlowPath(b *testing.B)  { benchExperiment(b, "abl-slow") }
func BenchmarkExtReplay(b *testing.B)    { benchExperiment(b, "ext-replay") }
func BenchmarkExtColoring(b *testing.B)  { benchExperiment(b, "ext-coloring") }
func BenchmarkExtICache(b *testing.B)    { benchExperiment(b, "ext-icache") }

// Fig. 15 (quad-core) and Fig. 18 (2 cores x 4 scenarios) are the
// heaviest experiments; bench them on a single mix / reduced matrix.
func BenchmarkFig15OneMix(b *testing.B) {
	mix := workload.Mixes()[0]
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms, err := sim.RunMix(context.Background(), mix, cfg, vm.ScenarioNormal, 1, benchRecords)
		if err != nil {
			b.Fatal(err)
		}
		if ms.SumIPC() <= 0 {
			b.Fatal("zero throughput")
		}
	}
}

func BenchmarkFig18OneCell(b *testing.B) {
	prof := workload.MustLookup("gcc")
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := sim.RunApp(context.Background(), prof, cfg, vm.ScenarioFragmented, 1, benchRecords)
		if err != nil {
			b.Fatal(err)
		}
		if st.Core.Instructions == 0 {
			b.Fatal("empty run")
		}
	}
}

// ---- simulator throughput ----

// BenchmarkSimulatorThroughput measures end-to-end records/second of
// the full system (generator + core + SIPT L1 + hierarchy).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof := workload.MustLookup("h264ref")
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := sim.RunApp(context.Background(), prof, cfg, vm.ScenarioNormal, 1, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(0)
		_ = st
	}
}

// ---- hot-path micro-benchmarks ----

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8,
		LineBytes: 64, LatencyCycles: 4})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memaddr.PAddr, 4096)
	for i := range addrs {
		addrs[i] = memaddr.PAddr(rng.Intn(1<<16) * 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := addrs[i%len(addrs)]
		if !c.Access(pa, false).Hit {
			c.Fill(pa, false)
		}
	}
}

func BenchmarkSIPTAccessCombined(b *testing.B) {
	l := core.New(core.Config{
		Cache: cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 2,
			LineBytes: 64, LatencyCycles: 2},
		Mode:       core.ModeCombined,
		TLBLatency: 2,
	})
	rng := rand.New(rand.NewSource(1))
	type op struct {
		va memaddr.VAddr
		pa memaddr.PAddr
	}
	ops := make([]op, 4096)
	for i := range ops {
		vpn := uint64(rng.Intn(512))
		ops[i] = op{memaddr.VPN(vpn).Addr(uint64(rng.Intn(64)) * 64),
			memaddr.PFN(vpn + 2).Addr(uint64(rng.Intn(64)) * 64)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ops[i%len(ops)]
		r := l.Access(0x400000+uint64(i%32)*4, o.va, o.pa, false)
		if !r.Hit {
			l.Fill(o.pa, false)
		}
	}
}

func BenchmarkPerceptronPredictTrain(b *testing.B) {
	p := predictor.NewPerceptron()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%64)*4
		p.Train(pc, p.Predict(pc), i%3 != 0)
	}
}

func BenchmarkIDBPredictTrain(b *testing.B) {
	idb := predictor.NewIDB(3, false, 1)
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%64)*4
		page := uint64(i / 8)
		d, ok := idb.Predict(pc, page)
		idb.Train(pc, page, 5, ok, ok && d == 5)
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := vm.NewBuddy(1 << 16)
	for i := 0; i < b.N; i++ {
		pfn, ok := bd.Alloc()
		if !ok {
			b.Fatal("exhausted")
		}
		bd.Free(pfn, 0)
	}
}

func BenchmarkTranslateWarm(b *testing.B) {
	bd := vm.NewBuddy(1 << 14)
	as := vm.NewAddressSpace(bd, false)
	base := as.Mmap(256 * memaddr.PageBytes)
	if err := as.Touch(base, 256*memaddr.PageBytes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + memaddr.VAddr(uint64(i%256)*memaddr.PageBytes)
		if _, _, err := as.Translate(va); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(tlb.Default())
	for i := 0; i < b.N; i++ {
		t.Translate(memaddr.VAddr(uint64(i%128)<<memaddr.PageShift), false)
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(dram.Default())
	for i := 0; i < b.N; i++ {
		d.Access(memaddr.PAddr(uint64(i)*64*17%(1<<28)), i%4 == 0, uint64(i)*30)
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	prof := workload.MustLookup("gcc")
	sys := sim.NewSystem(vm.ScenarioNormal, 1, prof)
	gen, err := workload.NewGenerator(prof, sys, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	var rec trace.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.NextInto(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorReset measures the quad-core recycle path on 4 KiB
// pages: a finished core's generator tears its address space down
// (ycsb's ~2,900 small-chunk VMAs unmapped in allocation order, frames
// back to the buddy) and rebuilds it.
func BenchmarkGeneratorReset(b *testing.B) {
	gen := benchGenerator(b, "ycsb")
	if n := len(gen.Space().VMAs()); n < 1000 {
		b.Fatalf("ycsb maps %d VMAs, want the small-chunk-heavy layout", n)
	}
	benchReset(b, gen)
}

// BenchmarkGeneratorResetHuge is the same recycle path on huge pages:
// mcf's big regions (95 % of 48 MiB) are promoted to 2 MiB pages, so
// teardown releases whole page-table leaves and the rebuild's Touch
// faults each region once.
func BenchmarkGeneratorResetHuge(b *testing.B) {
	gen := benchGenerator(b, "mcf")
	if n := gen.Space().Stats().MappedHuge; n < 16 {
		b.Fatalf("mcf maps %d huge regions, want its big regions promoted", n)
	}
	benchReset(b, gen)
}

func benchGenerator(b *testing.B, app string) *workload.Generator {
	b.Helper()
	prof := workload.MustLookup(app)
	gen, err := workload.NewGenerator(prof, sim.NewSystem(vm.ScenarioNormal, 1, prof), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

func benchReset(b *testing.B, gen *workload.Generator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
	}
}

// ---- trace replay ----

// benchBuffer materialises one app's trace once for the replay benches.
func benchBuffer(b *testing.B, app string) *replay.Buffer {
	b.Helper()
	buf, err := sim.Materialize(workload.MustLookup(app), vm.ScenarioNormal, 1, benchRecords)
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

// BenchmarkReplayDecode measures the packed-record decode loop alone:
// the per-record cost every replayed run pays.
func BenchmarkReplayDecode(b *testing.B) {
	buf := benchBuffer(b, "gcc")
	cur := buf.Cursor()
	var rec trace.Record
	b.ReportAllocs()
	b.SetBytes(replay.BytesPerRecord)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cur.NextInto(&rec); err != nil {
			cur.Reset()
		}
	}
}

// BenchmarkReplayRun measures one simulation over a pre-materialised
// buffer — BenchmarkSimulatorThroughput minus generation.
func BenchmarkReplayRun(b *testing.B) {
	buf := benchBuffer(b, "h264ref")
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := sim.RunBuffer(context.Background(), "h264ref", buf, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if st.Core.Instructions == 0 {
			b.Fatal("empty run")
		}
	}
}
