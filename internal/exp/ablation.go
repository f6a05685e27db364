package exp

import (
	"errors"
	"fmt"
	"io"

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

// AblationPredictor regenerates the paper's Sec. V sensitivity claims
// as a table: the default 64x12 perceptron against larger tables,
// longer histories, and the rejected 2-bit-counter design, measured as
// bypass-prediction accuracy on each app's real index-bit outcome
// stream (2 speculative bits, the 32K/2w geometry).
func AblationPredictor(r *Runner) ([]*report.Table, error) {
	designs := []struct {
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
	cols := []string{"app"}
	for _, d := range designs {
		cols = append(cols, d.name)
	}
	t := &report.Table{
		Title: "Ablation: bypass predictor design sensitivity (Sec. V)",
		Note: "accuracy of speculate/bypass decisions with 2 speculative bits; " +
			"paper: perceptrons insensitive to upsizing, counters ~85% and inconsistent",
		Columns: cols,
	}
	const bits = 2
	type row struct{ acc []float64 }
	rows, err := forEachApp(r, func(app string) (row, error) {
		gen, err := r.traceReader(app, vm.ScenarioNormal)
		if err != nil {
			return row{}, err
		}
		preds := make([]bypassPredictor, len(designs))
		for i, d := range designs {
			preds[i] = d.mk()
		}
		var rec trace.Record
		for {
			err := gen.NextInto(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return row{}, err
			}
			unchanged := memaddr.BitsUnchanged(rec.VA, rec.PA, bits)
			for _, p := range preds {
				p.Train(rec.PC, p.Predict(rec.PC), unchanged)
			}
		}
		rw := row{acc: make([]float64, len(preds))}
		for i, p := range preds {
			rw.acc[i] = p.Stats().Accuracy()
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([][]float64, len(designs))
	for i, app := range r.opts.apps() {
		cells := []string{app}
		for j, v := range rows[i].acc {
			cells = append(cells, report.F(v))
			sums[j] = append(sums[j], v)
		}
		t.AddRow(cells...)
	}
	avg := []string{"Average"}
	for _, vs := range sums {
		avg = append(avg, report.F(amean(vs)))
	}
	t.AddRow(avg...)
	return []*report.Table{t}, nil
}

// AblationIDB sweeps the index delta buffer entry count, showing the
// paper's implicit claim that a tiny (64-entry) IDB suffices because
// deltas are stable per region.
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
	type row struct{ hit []float64 }
	rows, err := forEachApp(r, func(app string) (row, error) {
		gen, err := r.traceReader(app, vm.ScenarioNormal)
		if err != nil {
			return row{}, err
		}
		idbs := make([]*predictor.IDB, len(entryCounts))
		for i, n := range entryCounts {
			idbs[i] = predictor.NewIDBSized(bits, n, false, r.opts.Seed)
		}
		var rec trace.Record
		for {
			err := gen.NextInto(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return row{}, err
			}
			page := uint64(rec.VA.PageNum())
			trueDelta := memaddr.IndexDelta(rec.VA, rec.PA, bits)
			for _, idb := range idbs {
				d, ok := idb.Predict(rec.PC, page)
				idb.Train(rec.PC, page, trueDelta, ok, ok && d == trueDelta)
			}
		}
		rw := row{hit: make([]float64, len(idbs))}
		for i, idb := range idbs {
			rw.hit[i] = idb.Stats().HitRate()
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([][]float64, len(entryCounts))
	for i, app := range r.opts.apps() {
		cells := []string{app}
		for j, v := range rows[i].hit {
			cells = append(cells, report.F(v))
			sums[j] = append(sums[j], v)
		}
		t.AddRow(cells...)
	}
	avg := []string{"Average"}
	for _, vs := range sums {
		avg = append(avg, report.F(amean(vs)))
	}
	t.AddRow(avg...)
	return []*report.Table{t}, nil
}

// AblationWayPredictor compares the paper's evaluated MRU way
// predictor against the "fancier" PC-indexed alternative it alludes to
// (Sec. VII-A), on both the 8-way baseline geometry and the 2-way SIPT
// geometry, by replaying each app's physical access stream through a
// cache and querying both predictors.
func AblationWayPredictor(r *Runner) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: way predictor design (Sec. VII-A)",
		Note: "hit-way prediction accuracy on L1 hits; paper: MRU is already high and " +
			"robust, and lowering associativity (SIPT) raises it further",
		Columns: []string{"app", "mru-8way", "pc-8way", "mru-2way", "pc-2way"},
	}
	type row struct{ acc [4]float64 }
	rows, err := forEachApp(r, func(app string) (row, error) {
		var rw row
		gen, err := r.traceReader(app, vm.ScenarioNormal)
		if err != nil {
			return rw, err
		}
		recs, err := trace.Collect(gen, 0)
		if err != nil {
			return rw, err
		}
		for gi, ways := range []int{8, 2} {
			c := cache.New(cache.Config{
				Name: "L1", SizeBytes: 32 << 10, Ways: ways, LineBytes: 64,
			})
			mru := predictor.NewMRUWay(int(c.Config().Sets()))
			pcw := predictor.NewPCWay(1024)
			for _, rec := range recs {
				res := c.Access(rec.PA, rec.IsStore())
				if !res.Hit {
					c.Fill(rec.PA, rec.IsStore())
					continue
				}
				set := c.SetOf(rec.PA)
				mru.Update(rec.PC, set, res.Way)
				pcw.Update(rec.PC, set, res.Way)
			}
			rw.acc[gi*2] = mru.Stats().Accuracy()
			rw.acc[gi*2+1] = pcw.Stats().Accuracy()
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	var sums [4][]float64
	for i, app := range r.opts.apps() {
		rw := rows[i]
		t.AddRow(app, report.F(rw.acc[0]), report.F(rw.acc[1]),
			report.F(rw.acc[2]), report.F(rw.acc[3]))
		for j := range sums {
			sums[j] = append(sums[j], rw.acc[j])
		}
	}
	t.AddRow("Average", report.F(amean(sums[0])), report.F(amean(sums[1])),
		report.F(amean(sums[2])), report.F(amean(sums[3])))
	return []*report.Table{t}, nil
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
	type row struct{ rel [5]float64 }
	rows, err := forEachApp(r, func(app string) (row, error) {
		var rw row
		cfgs := []sim.Config{sim.Baseline(cpu.OOO())}
		for _, m := range modes {
			cfgs = append(cfgs, sim.SIPT(cpu.OOO(), 32, 2, m))
		}
		sts, err := r.RunConfigs(app, cfgs, vm.ScenarioNormal)
		if err != nil {
			return rw, err
		}
		b := sts[0]
		for i := range modes {
			rw.rel[i] = sts[i+1].IPC() / b.IPC()
		}
		return rw, nil
	})
	if err != nil {
		return nil, err
	}
	var sums [5][]float64
	for i, app := range r.opts.apps() {
		rw := rows[i]
		t.AddRow(app, report.F(rw.rel[0]), report.F(rw.rel[1]), report.F(rw.rel[2]),
			report.F(rw.rel[3]), report.F(rw.rel[4]))
		for j := range sums {
			sums[j] = append(sums[j], rw.rel[j])
		}
	}
	t.AddRow("Average", report.F(hmean(sums[0])), report.F(hmean(sums[1])),
		report.F(hmean(sums[2])), report.F(hmean(sums[3])), report.F(hmean(sums[4])))
	return []*report.Table{t}, nil
}
