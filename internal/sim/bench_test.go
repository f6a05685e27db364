package sim

import (
	"context"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// benchSweep mirrors the fig6 harness shape: one app's materialised
// trace swept by the three-lane baseline/SIPT/ideal config set. It
// excludes materialisation (the trace is built once), so
// `go test -bench RunConfigs -benchmem ./internal/sim` is the quickest
// honest readout of a change to how a machine is built or stepped.
func benchSweep(b *testing.B, app string) {
	prof, err := workload.Lookup(app)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := Materialize(prof, vm.ScenarioNormal, 1, 30_000)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []Config{
		Baseline(cpu.OOO()),
		SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		SIPT(cpu.OOO(), 32, 2, core.ModeIdeal),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfigs(context.Background(), app, buf, cfgs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(cfgs)) * int64(buf.Len()))
}

func BenchmarkRunConfigsLibquantum(b *testing.B) { benchSweep(b, "libquantum") }
func BenchmarkRunConfigsYCSB(b *testing.B)       { benchSweep(b, "ycsb") }

// BenchmarkRunMixConfigsShort is one Tab. III mix on the five Fig. 15
// configs (baseline plus each SIPT geometry) at 1,250 records per core,
// the size of siptperf's quad-mix set-up. At this length rebuilding
// address spaces (each recycled pass's teardown and replayed set-up,
// each sibling config's first replay) is a sizeable share of the CPU
// time, so B/op and ns/op read out the recycle path beside the
// simulation.
func BenchmarkRunMixConfigsShort(b *testing.B) {
	mix := workload.Mixes()[0]
	cfgs := []Config{Baseline(cpu.OOO())}
	for _, g := range SIPTGeometries() {
		cfgs = append(cfgs, SIPT(cpu.OOO(), g[0], g[1], core.ModeCombined))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMixConfigs(context.Background(), mix, cfgs, vm.ScenarioNormal, 1, 1_250); err != nil {
			b.Fatal(err)
		}
	}
}
