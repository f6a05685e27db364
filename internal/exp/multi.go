package exp

import (
	"fmt"
	"sync"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// runMix runs one quad-core mix under each config, in one
// sim.RunMixConfigs call so the configs share each core's recorded
// trace.
func (r *Runner) runMix(mix workload.Mix, cfgs []sim.Config) ([]sim.MixStats, error) {
	return sim.RunMixConfigs(r.Context(), mix, cfgs, vm.ScenarioNormal, r.opts.Seed, r.opts.records())
}

// Fig15 regenerates Fig. 15: quad-core SIPT+IDB over the Tab. III
// mixes — sum-of-IPC for the four SIPT geometries, plus extra accesses
// and energy for the headline 32K/2w configuration, all normalised to
// the quad-core baseline.
func Fig15(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Fig. 15: quad-core SIPT with IDB (Tab. III mixes)",
		Note: "sum-of-IPC normalised to quad-core baseline; extra/energy for the 32K/2w config; " +
			"Average is the harmonic (IPC) / arithmetic (others) mean",
		Columns: []string{"mix", "32K-2w", "32K-4w", "64K-4w", "128K-4w", "extra-accesses", "energy"},
	}
	mixes := workload.Mixes()
	geoms := sim.SIPTGeometries()

	type row struct {
		ipc    [4]float64
		extra  float64
		energy float64
	}
	rows := make([]row, len(mixes))
	errs := make([]error, len(mixes))
	sem := make(chan struct{}, r.opts.workers())
	var wg sync.WaitGroup
	for i, mix := range mixes {
		wg.Add(1)
		go func(i int, mix workload.Mix) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			cfgs := []sim.Config{sim.Baseline(cpu.OOO())}
			for _, g := range geoms {
				cfgs = append(cfgs, sim.SIPT(cpu.OOO(), g[0], g[1], core.ModeCombined))
			}
			sts, err := r.runMix(mix, cfgs)
			if err != nil {
				errs[i] = err
				return
			}
			base := sts[0]
			for gi, g := range geoms {
				ms := sts[gi+1]
				rows[i].ipc[gi] = ms.SumIPC() / base.SumIPC()
				if g[0] == 32 && g[1] == 2 {
					rows[i].extra = ms.ExtraAccessRate()
					rows[i].energy = ms.Energy.Total() / base.Energy.Total()
				}
			}
		}(i, mix)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var ipcs [4][]float64
	var extras, energies []float64
	for i, mix := range mixes {
		rw := rows[i]
		t.AddRow(mix.Name,
			report.F(rw.ipc[0]), report.F(rw.ipc[1]), report.F(rw.ipc[2]), report.F(rw.ipc[3]),
			report.F(rw.extra), report.F(rw.energy))
		for gi := range ipcs {
			ipcs[gi] = append(ipcs[gi], rw.ipc[gi])
		}
		extras = append(extras, rw.extra)
		energies = append(energies, rw.energy)
	}
	t.AddRow("Average",
		report.F(hmean(ipcs[0])), report.F(hmean(ipcs[1])),
		report.F(hmean(ipcs[2])), report.F(hmean(ipcs[3])),
		report.F(amean(extras)), report.F(amean(energies)))
	return []*report.Table{t}, nil
}

// Fig18 regenerates Fig. 18: sensitivity of the four SIPT+IDB
// configurations to operating conditions (normal, fragmented memory,
// THP off, no >4KiB contiguity) on both cores. Reported per condition:
// average normalised IPC and energy per geometry, plus the prediction
// accuracy (fast-access fraction) of the 32K/2w configuration.
func Fig18(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Fig. 18: IPC, energy, and prediction accuracy under various operating conditions",
		Note: "averages over all apps, normalised to the baseline L1 under the same condition; " +
			"pred-acc = fast-access fraction of the 32K/2w SIPT+IDB cache",
		Columns: []string{"core/condition",
			"ipc-32K2w", "ipc-32K4w", "ipc-64K4w", "ipc-128K4w",
			"energy-32K2w", "energy-32K4w", "energy-64K4w", "energy-128K4w",
			"pred-acc"},
	}
	geoms := sim.SIPTGeometries()
	for _, coreCfg := range []cpu.Config{cpu.OOO(), cpu.InOrder()} {
		for _, sc := range vm.Scenarios() {
			type row struct {
				ipc, energy [4]float64
				acc         float64
			}
			rows, err := forEachApp(r, func(app string) (row, error) {
				var rw row
				cfgs := []sim.Config{sim.Baseline(coreCfg)}
				for _, g := range geoms {
					cfg := sim.SIPT(coreCfg, g[0], g[1], core.ModeCombined)
					cfg.NoContig = sc == vm.ScenarioNoContig
					cfgs = append(cfgs, cfg)
				}
				sts, err := r.RunConfigs(app, cfgs, sc)
				if err != nil {
					return rw, err
				}
				base := sts[0]
				for gi, g := range geoms {
					st := sts[gi+1]
					rw.ipc[gi] = st.IPC() / base.IPC()
					rw.energy[gi] = st.Energy.Total() / base.Energy.Total()
					if g[0] == 32 && g[1] == 2 {
						rw.acc = st.L1.FastFraction()
					}
				}
				return rw, nil
			})
			if err != nil {
				return nil, err
			}
			var ipc, energy [4][]float64
			var accs []float64
			for _, rw := range rows {
				for gi := range geoms {
					ipc[gi] = append(ipc[gi], rw.ipc[gi])
					energy[gi] = append(energy[gi], rw.energy[gi])
				}
				accs = append(accs, rw.acc)
			}
			t.AddRow(fmt.Sprintf("%s/%s", coreCfg.Name, sc),
				report.F(hmean(ipc[0])), report.F(hmean(ipc[1])),
				report.F(hmean(ipc[2])), report.F(hmean(ipc[3])),
				report.F(amean(energy[0])), report.F(amean(energy[1])),
				report.F(amean(energy[2])), report.F(amean(energy[3])),
				report.F(amean(accs)))
		}
	}
	return []*report.Table{t}, nil
}
