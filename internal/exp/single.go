package exp

import (
	"fmt"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/memaddr"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// idealConfigs are the Sec. III design points modelled as ideal caches
// (index always correct), exactly as the paper does for Figs. 2/3.
func idealConfigs(c cpu.Config) []sim.Config {
	return []sim.Config{
		sim.SIPT(c, 16, 4, core.ModeIdeal),
		sim.SIPT(c, 32, 2, core.ModeIdeal),
		sim.SIPT(c, 32, 4, core.ModeIdeal),
		sim.SIPT(c, 64, 4, core.ModeIdeal),
		sim.SIPT(c, 128, 4, core.ModeIdeal),
	}
}

// ipcSweep builds a normalised-IPC table over configurations.
func ipcSweep(r *Runner, title string, coreCfg cpu.Config, configs []sim.Config) ([]*report.Table, error) {
	cols := []string{"app"}
	for _, c := range configs {
		cols = append(cols, fmt.Sprintf("%dK-%dw", c.L1SizeKiB, c.L1Ways))
	}
	t := &report.Table{
		Title:   title,
		Note:    "IPC normalised to the 32KiB 8-way 4-cycle VIPT baseline; Average is the harmonic mean",
		Columns: cols,
	}
	base := sim.Baseline(coreCfg)
	return appTable(r, t, repeatMean(hmean, len(configs)), func(app string) ([]float64, error) {
		sts, err := r.RunConfigs(app, append([]sim.Config{base}, configs...), vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b := sts[0]
		rel := make([]float64, len(configs))
		for i := range configs {
			rel[i] = sts[i+1].IPC() / b.IPC()
		}
		return rel, nil
	})
}

// Fig2 regenerates Fig. 2: ideal-cache IPC sweep on the OOO core.
func Fig2(r *Runner) ([]*report.Table, error) {
	return ipcSweep(r, "Fig. 2: IPC with various L1 configs (ideal index), OOO core",
		cpu.OOO(), idealConfigs(cpu.OOO()))
}

// Fig3 regenerates Fig. 3: the same sweep on the in-order core.
func Fig3(r *Runner) ([]*report.Table, error) {
	return ipcSweep(r, "Fig. 3: IPC with various L1 configs (ideal index), in-order core",
		cpu.InOrder(), idealConfigs(cpu.InOrder()))
}

// Fig5 regenerates Fig. 5: the fraction of accesses whose speculative
// index bits survive translation, by required bit count, plus the
// huge-page fraction (for which 9 bits are guaranteed).
func Fig5(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 5: fraction of correct speculations vs speculated index bits",
		Note:    "k columns: accesses whose low k index bits beyond the page offset are unchanged; huge: accesses on 2MiB pages",
		Columns: []string{"app", "1-bit", "2-bit", "3-bit", "hugepage(9-bit)"},
	}
	return appTable(r, t, []mean{amean, amean, amean, amean}, func(app string) ([]float64, error) {
		rd, err := r.traceReader(app, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		var n, k1, k2, k3, huge uint64
		err = eachRecord(rd, func(rec *trace.Record) {
			n++
			u := memaddr.UnchangedBits(rec.VA, rec.PA, 9)
			if u >= 1 {
				k1++
			}
			if u >= 2 {
				k2++
			}
			if u >= 3 {
				k3++
			}
			if rec.Huge() {
				huge++
			}
		})
		if err != nil {
			return nil, err
		}
		f := func(x uint64) float64 { return float64(x) / float64(n) }
		return []float64{f(k1), f(k2), f(k3), f(huge)}, nil
	})
}

// siptIPCFigure builds the Fig. 6 / Fig. 13 layout: normalised IPC,
// normalised ideal IPC, and additional L1 accesses for one SIPT mode on
// the headline 32K/2w/2c geometry.
func siptIPCFigure(r *Runner, title string, mode core.Mode) ([]*report.Table, error) {
	t := &report.Table{
		Title:   title,
		Note:    "normalised to the baseline L1; extra = additional L1 array reads per demand access",
		Columns: []string{"app", "ipc", "ideal-ipc", "extra-accesses"},
	}
	return appTable(r, t, []mean{hmean, hmean, amean}, func(app string) ([]float64, error) {
		sts, err := r.RunConfigs(app, []sim.Config{
			sim.Baseline(cpu.OOO()),
			sim.SIPT(cpu.OOO(), 32, 2, mode),
			sim.SIPT(cpu.OOO(), 32, 2, core.ModeIdeal),
		}, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b, s, id := sts[0], sts[1], sts[2]
		return []float64{s.IPC() / b.IPC(), id.IPC() / b.IPC(), s.L1.ExtraAccessRate()}, nil
	})
}

// siptEnergyFigure builds the Fig. 7 / Fig. 14 layout: normalised total
// and dynamic cache-hierarchy energy for one SIPT mode on 32K/2w/2c.
func siptEnergyFigure(r *Runner, title string, mode core.Mode) ([]*report.Table, error) {
	t := &report.Table{
		Title:   title,
		Note:    "energies normalised to baseline total; dyn columns show the dynamic component over baseline total",
		Columns: []string{"app", "energy", "ideal-energy", "dyn-sipt", "dyn-baseline"},
	}
	return appTable(r, t, []mean{amean, amean, amean, amean}, func(app string) ([]float64, error) {
		sts, err := r.RunConfigs(app, []sim.Config{
			sim.Baseline(cpu.OOO()),
			sim.SIPT(cpu.OOO(), 32, 2, mode),
			sim.SIPT(cpu.OOO(), 32, 2, core.ModeIdeal),
		}, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b, s, id := sts[0], sts[1], sts[2]
		bt := b.Energy.Total()
		return []float64{
			s.Energy.Total() / bt,
			id.Energy.Total() / bt,
			s.Energy.Dynamic() / bt,
			b.Energy.Dynamic() / bt,
		}, nil
	})
}

// Fig6 regenerates Fig. 6: naive SIPT IPC and extra accesses.
func Fig6(r *Runner) ([]*report.Table, error) {
	return siptIPCFigure(r,
		"Fig. 6: IPC and additional L1 accesses, naive SIPT 32KiB/2-way/2-cycle, OOO",
		core.ModeNaive)
}

// Fig7 regenerates Fig. 7: naive SIPT energy.
func Fig7(r *Runner) ([]*report.Table, error) {
	return siptEnergyFigure(r,
		"Fig. 7: cache hierarchy energy, naive SIPT 32KiB/2-way/2-cycle, OOO",
		core.ModeNaive)
}

// bitGeometries maps each speculative bit count of Figs. 9/12 to the
// Tab. II geometry that requires it: 1 bit -> 32K/4w, 2 bits -> 32K/2w,
// 3 bits -> 128K/4w.
func bitGeometries() [][3]int {
	return [][3]int{{1, 32, 4}, {2, 32, 2}, {3, 128, 4}}
}

// Fig9 regenerates Fig. 9: the four bypass-predictor outcomes per app,
// for 1/2/3 speculated index bits.
func Fig9(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 9: bypass predictor outcome breakdown (fractions of accesses)",
		Note:    "per app, three geometries: 1 bit (32K/4w), 2 bits (32K/2w), 3 bits (128K/4w)",
		Columns: []string{"app", "bits", "correct-spec", "correct-bypass", "opportunity-loss", "extra-access"},
	}
	type row struct{ vals [3][4]float64 }
	rows, err := forEach(r, r.opts.apps(), func(app string) (row, error) {
		var rw row
		cfgs := make([]sim.Config, 0, len(bitGeometries()))
		for _, g := range bitGeometries() {
			cfgs = append(cfgs, sim.SIPT(cpu.OOO(), g[1], g[2], core.ModeBypass))
		}
		sts, err := r.RunConfigs(app, cfgs, vm.ScenarioNormal)
		if err != nil {
			return rw, err
		}
		for gi := range bitGeometries() {
			p := sts[gi].Bypass
			n := float64(p.Predictions)
			if n == 0 {
				continue
			}
			rw.vals[gi] = [4]float64{
				float64(p.CorrectSpeculate) / n,
				float64(p.CorrectBypass) / n,
				float64(p.OpportunityLoss) / n,
				float64(p.ExtraAccess) / n,
			}
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range r.opts.apps() {
		for gi, g := range bitGeometries() {
			v := rows[i].vals[gi]
			t.AddRow(app, fmt.Sprintf("%d", g[0]),
				report.F(v[0]), report.F(v[1]), report.F(v[2]), report.F(v[3]))
		}
	}
	return []*report.Table{t}, nil
}

// Fig12 regenerates Fig. 12: accuracy of the combined bypass + IDB
// predictor for 1/2/3 speculative bits.
func Fig12(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 12: combined predictor accuracy (fractions of accesses)",
		Note:    "correct-spec: fast via bypass predictor; idb-hit: fast via IDB (or reversed 1-bit); slow: remaining",
		Columns: []string{"app", "bits", "correct-spec", "idb-hit", "slow"},
	}
	type row struct{ vals [3][3]float64 }
	rows, err := forEach(r, r.opts.apps(), func(app string) (row, error) {
		var rw row
		cfgs := make([]sim.Config, 0, len(bitGeometries()))
		for _, g := range bitGeometries() {
			cfgs = append(cfgs, sim.SIPT(cpu.OOO(), g[1], g[2], core.ModeCombined))
		}
		sts, err := r.RunConfigs(app, cfgs, vm.ScenarioNormal)
		if err != nil {
			return rw, err
		}
		for gi := range bitGeometries() {
			st := sts[gi]
			n := float64(st.L1.Accesses)
			if n == 0 {
				continue
			}
			rw.vals[gi] = [3]float64{
				float64(st.L1.FastSpec) / n,
				float64(st.L1.FastIDB) / n,
				float64(st.L1.Slow) / n,
			}
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range r.opts.apps() {
		for gi, g := range bitGeometries() {
			v := rows[i].vals[gi]
			t.AddRow(app, fmt.Sprintf("%d", g[0]), report.F(v[0]), report.F(v[1]), report.F(v[2]))
		}
	}
	return []*report.Table{t}, nil
}

// Fig13 regenerates Fig. 13: SIPT with IDB, IPC and extra accesses.
func Fig13(r *Runner) ([]*report.Table, error) {
	return siptIPCFigure(r,
		"Fig. 13: IPC and additional L1 accesses, SIPT+IDB 32KiB/2-way/2-cycle, OOO",
		core.ModeCombined)
}

// Fig14 regenerates Fig. 14: SIPT with IDB, energy.
func Fig14(r *Runner) ([]*report.Table, error) {
	return siptEnergyFigure(r,
		"Fig. 14: cache hierarchy energy, SIPT+IDB 32KiB/2-way/2-cycle, OOO",
		core.ModeCombined)
}

// wayPredConfigs is the five-system sweep Figs. 16/17 share: baseline,
// baseline+WP, SIPT+IDB, SIPT+IDB+WP, and the perfect-WP ideal.
func wayPredConfigs() []sim.Config {
	bwpCfg := sim.Baseline(cpu.OOO())
	bwpCfg.WayPrediction = true
	swpCfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	swpCfg.WayPrediction = true
	idCfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeIdeal)
	idCfg.WayPrediction = true
	idCfg.PerfectWayPrediction = true
	return []sim.Config{
		sim.Baseline(cpu.OOO()),
		bwpCfg,
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		swpCfg,
		idCfg,
	}
}

// Fig16 regenerates Fig. 16: way prediction on baseline and on SIPT.
func Fig16(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 16: way prediction IPC (normalised to baseline) and accuracy",
		Note:    "systems: baseline+WP, SIPT+IDB (32K/2w/2c), SIPT+IDB+WP; ideal assumes perfect way prediction",
		Columns: []string{"app", "base+wp", "sipt", "sipt+wp", "ideal", "wp-acc-base", "wp-acc-sipt"},
	}
	return appTable(r, t, []mean{hmean, hmean, hmean, hmean, amean, amean}, func(app string) ([]float64, error) {
		sts, err := r.RunConfigs(app, wayPredConfigs(), vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b, bwp, s, swp, id := sts[0], sts[1], sts[2], sts[3], sts[4]
		return []float64{
			bwp.IPC() / b.IPC(), s.IPC() / b.IPC(), swp.IPC() / b.IPC(),
			id.IPC() / b.IPC(), bwp.L1.WayAccuracy(), swp.L1.WayAccuracy(),
		}, nil
	})
}

// Fig17 regenerates Fig. 17: way prediction energy.
func Fig17(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 17: cache hierarchy energy with way prediction, normalised to baseline",
		Note:    "systems: baseline+WP, SIPT+IDB (32K/2w/2c), SIPT+IDB+WP, ideal (perfect WP)",
		Columns: []string{"app", "base+wp", "sipt", "sipt+wp", "ideal"},
	}
	return appTable(r, t, []mean{amean, amean, amean, amean}, func(app string) ([]float64, error) {
		sts, err := r.RunConfigs(app, wayPredConfigs(), vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b, bwp, s, swp, id := sts[0], sts[1], sts[2], sts[3], sts[4]
		bt := b.Energy.Total()
		return []float64{bwp.Energy.Total() / bt, s.Energy.Total() / bt,
			swp.Energy.Total() / bt, id.Energy.Total() / bt}, nil
	})
}
