package exp

import (
	"fmt"

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
	vals, err := forEach(r, mixes, func(mix workload.Mix) ([]float64, error) {
		cfgs := []sim.Config{sim.Baseline(cpu.OOO())}
		for _, g := range geoms {
			cfgs = append(cfgs, sim.SIPT(cpu.OOO(), g[0], g[1], core.ModeCombined))
		}
		sts, err := r.runMix(mix, cfgs)
		if err != nil {
			return nil, err
		}
		// One sum-of-IPC column per geometry, then extra and energy.
		base := sts[0]
		row := make([]float64, len(geoms)+2)
		for gi, g := range geoms {
			ms := sts[gi+1]
			row[gi] = ms.SumIPC() / base.SumIPC()
			if g[0] == 32 && g[1] == 2 {
				row[len(geoms)] = ms.ExtraAccessRate()
				row[len(geoms)+1] = ms.Energy.Total() / base.Energy.Total()
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(mixes))
	for i, mix := range mixes {
		names[i] = mix.Name
	}
	addRows(t, names, vals)
	averageRow(t, "Average", []mean{hmean, hmean, hmean, hmean, amean, amean}, vals)
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
	means := []mean{hmean, hmean, hmean, hmean, amean, amean, amean, amean, amean}
	for _, coreCfg := range []cpu.Config{cpu.OOO(), cpu.InOrder()} {
		for _, sc := range vm.Scenarios() {
			// One IPC and one energy column per geometry, then pred-acc.
			vals, err := forEach(r, r.opts.apps(), func(app string) ([]float64, error) {
				cfgs := []sim.Config{sim.Baseline(coreCfg)}
				for _, g := range geoms {
					cfg := sim.SIPT(coreCfg, g[0], g[1], core.ModeCombined)
					cfg.NoContig = sc == vm.ScenarioNoContig
					cfgs = append(cfgs, cfg)
				}
				sts, err := r.RunConfigs(app, cfgs, sc)
				if err != nil {
					return nil, err
				}
				base := sts[0]
				row := make([]float64, 2*len(geoms)+1)
				for gi, g := range geoms {
					st := sts[gi+1]
					row[gi] = st.IPC() / base.IPC()
					row[len(geoms)+gi] = st.Energy.Total() / base.Energy.Total()
					if g[0] == 32 && g[1] == 2 {
						row[2*len(geoms)] = st.L1.FastFraction()
					}
				}
				return row, nil
			})
			if err != nil {
				return nil, err
			}
			averageRow(t, fmt.Sprintf("%s/%s", coreCfg.Name, sc), means, vals)
		}
	}
	return []*report.Table{t}, nil
}
