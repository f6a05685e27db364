package exp

import (
	"context"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/memaddr"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// ExtReplay quantifies the paper's Sec. VII-C discussion: SIPT's bypass
// predictor doubles as a confidence estimator for the instruction
// scheduler. Loads the perceptron predicts "speculate" for (and gets
// right) can use a simple, cheap replay mechanism; only the rest need
// expensive selective-replay resources. The table reports what fraction
// of accesses falls in each class on the headline 32K/2w geometry.
func ExtReplay(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Extension (Sec. VII-C): scheduler replay pressure under SIPT",
		Note: "simple-replay: confidently-speculated accesses that completed fast; " +
			"selective-replay: accesses needing precise recovery (mispredictions); " +
			"slow-known: predicted-slow accesses with deterministic timing",
		Columns: []string{"app", "simple-replay", "slow-known", "selective-replay"},
	}
	return appTable(r, t, []mean{amean, amean, amean}, func(app string) ([]float64, error) {
		st, err := r.Run(app, sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined), vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		n := float64(st.L1.Accesses)
		if n == 0 {
			return make([]float64, 3), nil
		}
		// Fast accesses had correct timing speculation: simple replay
		// suffices. Slow accesses were mispredicted: they are the ones
		// that exercise selective replay. Bypassed accesses (none in
		// combined mode, but present in bypass mode) have known timing.
		return []float64{
			float64(st.L1.Fast) / n,     // simple-replay
			float64(st.L1.Bypassed) / n, // slow-known
			float64(st.L1.Slow) / n,     // selective-replay
		}, nil
	})
}

// ExtColoring contrasts SIPT with the Sec. II-D software alternative:
// OS page coloring. With a coloring allocator, the speculative index
// bits are correct by construction whenever coloring succeeded, so even
// naive SIPT approaches ideal — at the cost of relying on software and
// of colored-allocation fallbacks under memory pressure. The table
// reports the naive-SIPT fast fraction and normalised IPC with and
// without coloring.
func ExtColoring(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Extension (Sec. II-D): page coloring vs hardware speculation",
		Note: "naive SIPT 32K/2w; coloring constrains PFN low bits to match VPN " +
			"(software-managed); combined-SIPT column shows the pure-hardware result",
		Columns: []string{"app", "naive-fast", "naive-fast-colored", "ipc-naive",
			"ipc-naive-colored", "ipc-combined"},
	}
	return appTable(r, t, []mean{amean, amean, hmean, hmean, hmean}, func(app string) ([]float64, error) {
		prof, err := workload.Lookup(app)
		if err != nil {
			return nil, err
		}
		sts, err := r.RunConfigs(app, []sim.Config{
			sim.Baseline(cpu.OOO()),
			sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
			sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		}, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		base, naive, comb := sts[0], sts[1], sts[2]
		// Colored run: build the system by hand (coloring is not a
		// vm.Scenario; it is an allocation policy).
		sys := sim.NewSystem(vm.ScenarioTHPOff, r.opts.Seed, prof)
		sys.SetColored(true)
		gen, err := workload.NewGenerator(prof, sys, r.opts.Seed, r.opts.records())
		if err != nil {
			return nil, err
		}
		colored, err := sim.RunTrace(r.Context(), app, gen, sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive), r.opts.Seed)
		if err != nil {
			return nil, err
		}
		return []float64{
			naive.L1.FastFraction(),
			colored.L1.FastFraction(),
			naive.IPC() / base.IPC(),
			colored.IPC() / base.IPC(),
			comb.IPC() / base.IPC(),
		}, nil
	})
}

// ExtICache is the paper's declared future work ("leaving instruction
// caches for future work ... we believe SIPT will work at least as well
// for instruction caches as instruction working sets are typically
// small"). It runs the SIPT engine over synthetic instruction-fetch
// streams and reports the fast-access fraction at 1-3 speculative bits,
// alongside each app's data-side fraction for comparison.
func ExtICache(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Extension (future work): SIPT on the instruction side",
		Note: "naive = raw 2-bit survival on the fetch stream (one text mapping, so a " +
			"single delta decides it); combined = fast fraction with bypass+IDB prediction; " +
			"the paper expects the I-side to work at least as well as the D-side",
		Columns: []string{"app", "icache-naive", "icache-combined", "dcache-combined"},
	}
	return appTable(r, t, []mean{amean, amean, amean}, func(app string) ([]float64, error) {
		prof, err := workload.Lookup(app)
		if err != nil {
			return nil, err
		}
		d, err := r.Run(app, sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined), vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		naive, combined, err := icacheFastFractions(r.Context(), prof, r.opts.Seed, r.opts.records()/4)
		if err != nil {
			return nil, err
		}
		return []float64{naive, combined, d.L1.FastFraction()}, nil
	})
}

// icacheFastFractions generates an instruction-fetch stream for the
// profile's code layout and measures both the raw 2-bit survival
// (naive) and the SIPT engine's fast fraction under the combined
// predictor, using a 32K/2w L1I.
func icacheFastFractions(ctx context.Context, prof workload.Profile, seed int64, fetches uint64) (naive, combined float64, err error) {
	sys := sim.NewSystem(vm.ScenarioNormal, seed, prof)
	gen, err := workload.NewIFetchGenerator(prof, sys, seed, fetches)
	if err != nil {
		return 0, 0, err
	}
	recs, err := trace.Collect(gen, 0)
	if err != nil {
		return 0, 0, err
	}
	if len(recs) == 0 {
		return 0, 0, nil
	}
	var fast uint64
	for i, rec := range recs {
		if uint64(i)&(cpu.CtxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
		}
		if memaddr.BitsUnchanged(rec.VA, rec.PA, 2) {
			fast++
		}
	}
	naive = float64(fast) / float64(len(recs))

	st, err := sim.RunTrace(ctx, prof.Name+"/text", trace.NewSliceReader(recs),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined), seed)
	if err != nil {
		return 0, 0, err
	}
	return naive, st.L1.FastFraction(), nil
}
