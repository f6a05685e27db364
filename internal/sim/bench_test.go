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
