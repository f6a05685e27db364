package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sipt/internal/exp"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/workload"
)

// kernelApps are the golden-table applications: two that speculate
// well (libquantum, calculix) and two that do not (h264ref, ycsb), so
// every SIPT outcome class is on the path being timed.
var kernelApps = []string{"libquantum", "calculix", "h264ref", "ycsb"}

// kernelExps are the figures one kernel-sweep rep regenerates. On one
// fresh memo cache they simulate 7 lanes per app: Fig. 6's three, Fig.
// 9's three, and Fig. 13's combined lane (its baseline and ideal lanes
// are Fig. 6's, memoised).
var kernelExps = []string{"fig6", "fig9", "fig13"}

// renderTables renders tables as text the way the golden files do: each
// table followed by a blank line.
func renderTables(tabs []*report.Table) (string, error) {
	var b strings.Builder
	for _, t := range tabs {
		if err := t.Render(&b); err != nil {
			return "", err
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// runExps runs the experiments in order on r and returns their rendered
// tables concatenated. Each experiment is an exp.<id> span under parent.
func runExps(r *exp.Runner, ids []string, tr *tracer, parent int) (string, error) {
	var b strings.Builder
	for _, id := range ids {
		e, err := exp.Lookup(id)
		if err != nil {
			return "", err
		}
		sp := tr.begin("exp."+id, parent, "")
		tabs, err := e.Run(r)
		tr.end(sp)
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		s, err := renderTables(tabs)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

// batchPhase is the timed loop shared by kernel-sweep and quad-mix: reps
// run back to back until d has elapsed (at least minReps), each rep's
// rendered output must equal the first's, and throughput is the
// workload's records per rep over the rep's wall time.
func batchPhase(ctx context.Context, d time.Duration, minReps int, tr *tracer,
	rep func(tr *tracer, parent int) (out string, records float64, r *exp.Runner, err error)) *phaseResult {

	p := &phaseResult{layers: map[string]metric{}}
	var ref string
	var memoHits, memoLookups float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		if ctx.Err() != nil {
			p.fail("timed phase: %v", ctx.Err())
			break
		}
		sp := tr.begin("rep", 0, "")
		t0 := time.Now()
		out, records, r, err := rep(tr, sp)
		dt := time.Since(t0)
		tr.end(sp)
		p.attempted++
		if err != nil {
			p.fail("rep %d: %v", i, err)
			continue
		}
		switch {
		case ref == "":
			ref = out
			p.output = out
		case out != ref:
			p.fail("rep %d: rendered tables differ from rep 0", i)
			continue
		}
		p.rates = append(p.rates, records/dt.Seconds())
		p.latMS = append(p.latMS, float64(dt.Nanoseconds())/1e6)
		cs := r.CacheStats()
		memoHits += float64(cs.Hits)
		memoLookups += float64(cs.Hits + cs.Misses)
	}
	p.wall = time.Since(start)
	p.layers["memo.hit_ratio"] = metric{Value: ratio(memoHits, memoLookups)}
	return p
}

// kernelEnv is the kernel-sweep workload: Figs. 6/9/13 re-simulated on
// a fresh memo cache per rep over one shared trace pool, so the timed
// work is the fused SoA kernel and the experiment harness around it.
type kernelEnv struct {
	base    *exp.Runner
	records uint64
	seed    int64
}

func newKernelEnv(_ context.Context, c *config) (env, error) {
	k := &kernelEnv{records: c.size.kernelRecords, seed: c.seed}
	k.base = exp.NewRunner(k.options())
	// Fig. 5 reads every app's trace through the runner's pool, so it
	// materialises the pool without running a simulation.
	if _, err := exp.Fig5(k.base); err != nil {
		return nil, fmt.Errorf("materialising the trace pool: %w", err)
	}
	return k, nil
}

func (k *kernelEnv) options() exp.Options {
	return exp.Options{Records: k.records, Seed: k.seed, Apps: kernelApps, Workers: 1}
}

func (k *kernelEnv) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	before := k.base.TraceStats()
	p := batchPhase(ctx, d, 1, tr, func(tr *tracer, parent int) (string, float64, *exp.Runner, error) {
		r := k.base.WithFreshCache().WithContext(ctx)
		out, err := runExps(r, kernelExps, tr, parent)
		return out, float64(r.Simulations() * k.records), r, err
	})
	after := k.base.TraceStats()
	hits := float64(after.Hits - before.Hits)
	p.layers["replay.pool_hit_ratio"] = metric{Value: ratio(hits, hits+float64(after.Misses-before.Misses))}
	return p, nil
}

// verify checks the golden tables and that replay through the pool
// renders exactly what live generation does at the timed size.
func (k *kernelEnv) verify(ctx context.Context, c *config, p *phaseResult) []check {
	checks := []check{goldenCheck(c.golden)}
	live := k.options()
	live.LiveGen = true
	live.Workers = 2 // verification is untimed: use both CPUs
	out, err := runExps(exp.NewRunner(live).WithContext(ctx), kernelExps, nil, 0)
	checks = append(checks, compareOutput("kernel-sweep tables equal a LiveGen runner", p.output, out, err))
	return checks
}

func (k *kernelEnv) layerInput() layerInput {
	return layerInput{apps: kernelApps, seed: k.seed, records: k.records}
}

func (k *kernelEnv) close() error { return nil }

// mixEnv is the quad-mix workload: Fig. 15 on a fresh runner per rep —
// the coupled sim.RunMix interleave over live generators, which
// bypasses the SoA kernel and the replay pool.
type mixEnv struct {
	perCore uint64
	seed    int64
}

func newMixEnv(ctx context.Context, c *config) (env, error) {
	m := &mixEnv{perCore: c.size.mixRecords, seed: c.seed}
	// Warm-up: one Fig. 15 at an eighth of the timed length, so lazy
	// runtime set-up (heap growth, first-touch of every code path) is
	// paid before timing.
	r := exp.NewRunner(exp.Options{Records: m.perCore / 8, Seed: m.seed, Workers: 1}).WithContext(ctx)
	if _, err := exp.Fig15(r); err != nil {
		return nil, fmt.Errorf("quad-mix warm-up: %w", err)
	}
	return m, nil
}

// nominalRecords is one Fig. 15 rep's simulated records: every mix on
// the baseline and each SIPT geometry, four cores of perCore records.
// Finished cores keep running recycled traces until the last core ends;
// those records are contention, not counted work.
func (m *mixEnv) nominalRecords() float64 {
	configs := 1 + len(sim.SIPTGeometries())
	return float64(len(workload.Mixes()) * configs * 4 * int(m.perCore))
}

func (m *mixEnv) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	// Two reps at least, so the determinism check always compares.
	p := batchPhase(ctx, d, 2, tr, func(tr *tracer, parent int) (string, float64, *exp.Runner, error) {
		r := exp.NewRunner(exp.Options{Records: m.perCore, Seed: m.seed, Workers: 1}).WithContext(ctx)
		out, err := runExps(r, []string{"fig15"}, tr, parent)
		return out, m.nominalRecords(), r, err
	})
	// Mixes run on live generators: the replay pool is never consulted.
	p.layers["replay.pool_hit_ratio"] = metric{}
	return p, nil
}

// verify has nothing beyond the phase's own check that every rep
// rendered identical tables.
func (m *mixEnv) verify(context.Context, *config, *phaseResult) []check { return nil }

func (m *mixEnv) layerInput() layerInput {
	mix := workload.Mixes()[0]
	return layerInput{apps: mix.Apps[:], seed: m.seed, records: m.perCore}
}

func (m *mixEnv) close() error { return nil }
