package exp

import (
	"fmt"

	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/memaddr"
	"sipt/internal/predictor"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// bypassPredictor abstracts the predictors compared in the ablation.
type bypassPredictor interface {
	Predict(pc uint64) bool
	Train(pc uint64, predicted, unchanged bool)
	Stats() predictor.PerceptronStats
}

// bypassDesigns are abl-pred's columns. The first is the Perceptron
// core.L1 runs, so its column equals Fig. 9's 2-bit accuracy.
var bypassDesigns = []struct {
	name string
	mk   func() bypassPredictor
}{
	{"perceptron-64x12", func() bypassPredictor { return predictor.NewPerceptron() }},
	{"perceptron-256x12", func() bypassPredictor { return predictor.NewSizedPerceptron(256, 12) }},
	{"perceptron-64x24", func() bypassPredictor { return predictor.NewSizedPerceptron(64, 24) }},
	{"perceptron-512x32", func() bypassPredictor { return predictor.NewSizedPerceptron(512, 32) }},
	{"counter-64", func() bypassPredictor { return predictor.NewCounter(64) }},
	{"counter-1024", func() bypassPredictor { return predictor.NewCounter(1024) }},
}

// AblationPredictor regenerates the paper's Sec. V sensitivity claims
// as a table: the default 64x12 perceptron against larger tables,
// longer histories, and the rejected 2-bit-counter design, measured as
// bypass-prediction accuracy on each app's real index-bit outcome
// stream (2 speculative bits, the 32K/2w geometry).
func AblationPredictor(r *Runner) ([]*report.Table, error) {
	cols := []string{"app"}
	for _, d := range bypassDesigns {
		cols = append(cols, d.name)
	}
	t := &report.Table{
		Title: "Ablation: bypass predictor design sensitivity (Sec. V)",
		Note: "accuracy of speculate/bypass decisions with 2 speculative bits; " +
			"paper: perceptrons insensitive to upsizing, counters ~85% and inconsistent",
		Columns: cols,
	}
	return appTable(r, t, repeatMean(amean, len(bypassDesigns)), func(app string) ([]float64, error) {
		return bypassAccuracies(r, app)
	})
}

// bypassAccuracies is one row of abl-pred: every design predicts and
// trains on each record of app's trace in turn.
func bypassAccuracies(r *Runner, app string) ([]float64, error) {
	const bits = 2
	rd, err := r.traceReader(app, vm.ScenarioNormal)
	if err != nil {
		return nil, err
	}
	preds := make([]bypassPredictor, len(bypassDesigns))
	for i, d := range bypassDesigns {
		preds[i] = d.mk()
	}
	err = eachRecord(rd, func(rec *trace.Record) {
		unchanged := memaddr.BitsUnchanged(rec.VA, rec.PA, bits)
		for _, p := range preds {
			p.Train(rec.PC, p.Predict(rec.PC), unchanged)
		}
	})
	if err != nil {
		return nil, err
	}
	acc := make([]float64, len(preds))
	for i, p := range preds {
		acc[i] = p.Stats().Accuracy()
	}
	return acc, nil
}

// AblationIDB sweeps the index delta buffer entry count, showing the
// paper's implicit claim that a tiny (64-entry) IDB suffices because
// deltas are stable per region.
// Each IDB predicts on every access by design; core.L1 asks its IDB
// only when the perceptron bypasses, so the columns are not Fig. 12's
// idb-hit.
func AblationIDB(r *Runner) ([]*report.Table, error) {
	entryCounts := []int{8, 16, 64, 256}
	cols := []string{"app"}
	for _, n := range entryCounts {
		cols = append(cols, fmt.Sprintf("idb-%d", n))
	}
	t := &report.Table{
		Title:   "Ablation: IDB entry-count sensitivity (Sec. VI)",
		Note:    "IDB hit rate (correct delta) with 2 speculative bits, predicting on every access",
		Columns: cols,
	}
	const bits = 2
	return appTable(r, t, repeatMean(amean, len(entryCounts)), func(app string) ([]float64, error) {
		rd, err := r.traceReader(app, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		idbs := make([]*predictor.IDB, len(entryCounts))
		for i, n := range entryCounts {
			idbs[i] = predictor.NewIDBSized(bits, n, false, r.opts.Seed)
		}
		err = eachRecord(rd, func(rec *trace.Record) {
			page := uint64(rec.VA.PageNum())
			trueDelta := memaddr.IndexDelta(rec.VA, rec.PA, bits)
			for _, idb := range idbs {
				d, ok := idb.Predict(rec.PC, page)
				idb.Train(rec.PC, page, trueDelta, ok, ok && d == trueDelta)
			}
		})
		if err != nil {
			return nil, err
		}
		hit := make([]float64, len(idbs))
		for i, idb := range idbs {
			hit[i] = idb.Stats().HitRate()
		}
		return hit, nil
	})
}

// AblationWayPredictor compares the paper's evaluated MRU way
// predictor against the "fancier" PC-indexed alternative it alludes to
// (Sec. VII-A), on both the 8-way baseline geometry and the 2-way SIPT
// geometry.
func AblationWayPredictor(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: way predictor design (Sec. VII-A)",
		Note: "hit-way prediction accuracy on L1 hits; paper: MRU is already high and " +
			"robust, and lowering associativity (SIPT) raises it further",
		Columns: []string{"app", "mru-8way", "pc-8way", "mru-2way", "pc-2way"},
	}
	return appTable(r, t, repeatMean(amean, 4), func(app string) ([]float64, error) {
		return wayPredictorAccuracies(r, app)
	})
}

// wayPredictorAccuracies is one row of abl-way: it replays app's
// physical access stream through a 32K L1 of 8 and then 2 ways and
// scores both predictors over every L1 hit. The MRU column reads the
// cache's recency head, the signal core.L1 uses for Fig. 16, so it
// equals that figure's accuracy. PCWay learns the way of every hit and
// of every fill, and a cold entry counts as a miss.
func wayPredictorAccuracies(r *Runner, app string) ([]float64, error) {
	rd, err := r.traceReader(app, vm.ScenarioNormal)
	if err != nil {
		return nil, err
	}
	recs, err := trace.Collect(rd, 0)
	if err != nil {
		return nil, err
	}
	acc := make([]float64, 0, 4)
	for _, ways := range []int{8, 2} {
		c := cache.New(cache.Config{
			Name: "L1", SizeBytes: 32 << 10, Ways: ways, LineBytes: 64,
		})
		pcw := predictor.NewPCWay(1024)
		var hits, mruHits, pcHits int
		for _, rec := range recs {
			set := c.SetOf(rec.PA)
			res := c.Access(rec.PA, rec.IsStore())
			if res.Hit {
				hits++
				if res.MRUHit {
					mruHits++
				}
				if pcw.Predict(rec.PC, set) == res.Way {
					pcHits++
				}
			} else {
				c.Fill(rec.PA, rec.IsStore())
				// The fill memoised its line, so this lookup reads back
				// the installed way without touching the recency word.
				res = c.Access(rec.PA, false)
			}
			pcw.Record(rec.PC, set, res.Way)
		}
		n := float64(max(hits, 1)) // no hits reads as 0
		acc = append(acc, float64(mruHits)/n, float64(pcHits)/n)
	}
	return acc, nil
}

// AblationSlowPath quantifies each piece of the SIPT design on the
// headline geometry: PIPT-style always-wait (VIPT mode on infeasible
// geometry), naive always-speculate, bypass-only, combined, and ideal —
// the progression of the paper's Secs. IV-VI in one table.
func AblationSlowPath(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: SIPT design progression on 32K/2-way/2-cycle (OOO)",
		Note: "normalised IPC per indexing scheme; pipt = access after translation, " +
			"the design the paper's Fig. 4 slow path degenerates to",
		Columns: []string{"app", "pipt", "naive", "bypass", "combined", "ideal"},
	}
	modes := []core.Mode{core.ModeVIPT, core.ModeNaive, core.ModeBypass,
		core.ModeCombined, core.ModeIdeal}
	return appTable(r, t, repeatMean(hmean, len(modes)), func(app string) ([]float64, error) {
		cfgs := []sim.Config{sim.Baseline(cpu.OOO())}
		for _, m := range modes {
			cfgs = append(cfgs, sim.SIPT(cpu.OOO(), 32, 2, m))
		}
		sts, err := r.RunConfigs(app, cfgs, vm.ScenarioNormal)
		if err != nil {
			return nil, err
		}
		b := sts[0]
		rel := make([]float64, len(modes))
		for i := range modes {
			rel[i] = sts[i+1].IPC() / b.IPC()
		}
		return rel, nil
	})
}
