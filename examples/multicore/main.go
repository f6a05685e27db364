// Multicore: a quad-core multiprogrammed run in the style of the
// paper's Fig. 15. Four applications (one Tab. III mix) share a 4x LLC
// and DRAM while each core keeps its private SIPT L1, L2, and TLB; the
// example prints per-core IPC under the baseline and under SIPT with
// the combined predictor, plus the sum-of-IPC throughput metric.
//
// Run with:
//
//	go run ./examples/multicore
package main

import (
	"context"
	"fmt"
	"log"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

func main() {
	const records = 60_000
	const seed = 1
	mix := workload.Mixes()[5] // h264ref, cactusADM, calculix, tonto

	// One call runs both configs, so each core's trace is drawn once and
	// replayed for the SIPT run.
	cfgs := []sim.Config{sim.Baseline(cpu.OOO()), sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)}
	sts, err := sim.RunMixConfigs(context.Background(), mix, cfgs, vm.ScenarioNormal, seed, records)
	if err != nil {
		log.Fatal(err)
	}
	base, sipt := sts[0], sts[1]

	fmt.Printf("mix %s on a quad-core OOO system (shared 8 MiB LLC)\n\n", mix.Name)
	fmt.Printf("%-12s  %12s  %12s  %9s  %10s\n", "core/app", "baseline-IPC", "SIPT-IPC", "speedup", "fast-frac")
	for i := range sipt.PerCore {
		b, s := base.PerCore[i], sipt.PerCore[i]
		fmt.Printf("%d %-10s  %12.3f  %12.3f  %+8.1f%%  %9.1f%%\n",
			i, s.App, b.IPC(), s.IPC(), (s.IPC()/b.IPC()-1)*100, s.L1.FastFraction()*100)
	}
	fmt.Printf("\nsum-of-IPC: baseline %.3f, SIPT %.3f (%+.1f%%)\n",
		base.SumIPC(), sipt.SumIPC(), (sipt.SumIPC()/base.SumIPC()-1)*100)
	fmt.Printf("cache-hierarchy energy: %.3f of baseline\n",
		sipt.Energy.Total()/base.Energy.Total())
}
