package exp

import (
	"errors"
	"fmt"
	"io"

	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// poolKey is the trace-pool key for one (app, scenario) under the
// runner's current options. Records and seed are in the key, so derived
// views (WithOptions) sharing one pool never alias.
func (r *Runner) poolKey(app string, sc vm.Scenario) replay.Key {
	return replay.Key{App: app, Scenario: sc, Seed: r.opts.Seed, Records: r.opts.records()}
}

// traceSource decides, once for a batch of runs over (app, sc)'s record
// stream, where the records come from, and returns the opener each run
// calls for its own reader: cursors over the pooled buffer, or fresh
// live generators producing the identical records. The choice is a
// cost decision only; the stream is the same either way. Live
// generation is used when Options.LiveGen asks for it, when the trace
// cannot be packed (replay.ErrUnpackable), or when the pool cannot
// serve it (replay.ErrOversize, replay.ErrEvicted). Only the last case
// is a degradation: it adds runs to the count the daemon exposes as
// serve_degraded_runs_total.
func (r *Runner) traceSource(app string, sc vm.Scenario, runs int) (func() (trace.Reader, error), error) {
	if !r.opts.LiveGen {
		buf, err := r.sh.traces.Get(r.poolKey(app, sc))
		switch {
		case err == nil:
			return func() (trace.Reader, error) { return buf.Cursor(), nil }, nil
		case errors.Is(err, replay.ErrOversize), errors.Is(err, replay.ErrEvicted):
			r.sh.degraded.Add(uint64(runs))
		case !errors.Is(err, replay.ErrUnpackable):
			return nil, err
		}
	}
	prof, err := workload.Lookup(app)
	if err != nil {
		return nil, err
	}
	return func() (trace.Reader, error) {
		sys := sim.NewSystem(sc, r.opts.Seed, prof)
		return workload.NewGenerator(prof, sys, r.opts.Seed, r.opts.records())
	}, nil
}

// traceReader returns (app, sc)'s record stream under the runner's
// options (a one-run traceSource). Figures that analyse raw traces
// (Fig. 5, the predictor ablations) drain this instead of constructing
// generators by hand, so they too share one materialisation per app.
func (r *Runner) traceReader(app string, sc vm.Scenario) (trace.Reader, error) {
	open, err := r.traceSource(app, sc, 1)
	if err != nil {
		return nil, err
	}
	return open()
}

// eachRecord calls fn on every record rd yields, until io.EOF.
func eachRecord(rd trace.Reader, fn func(rec *trace.Record)) error {
	var rec trace.Record
	for {
		err := rd.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(&rec)
	}
}

// The runner's tier ladder, shared by Run, RunConfigs and RunTrace:
//
//	memo cache -> store -> remote -> local RunTrace over traceSource
//
// RunConfigs partitions a sweep against the memo cache and Run/RunTrace
// wrap one config in the cache's singleflight (runOne); tiered serves
// what it can from the persistent store; simulate computes the rest.

// runOne is the memo -> store wrapper Run and RunTrace share: one
// config under memoKey, whose trace has content address digest,
// computed by run on a miss in both tiers.
func (r *Runner) runOne(memoKey, digest string, cfg sim.Config,
	run func([]sim.Config) ([]sim.Stats, error)) (sim.Stats, error) {
	return r.sh.cache.Do(memoKey, func() (sim.Stats, error) {
		sts, err := r.tiered(digest, []string{memoKey}, []sim.Config{cfg}, run)
		if err != nil {
			return sim.Stats{}, err
		}
		return sts[0], nil
	})
}

// tiered is the store tier: cfgs (distinct, not memoised; memoKeys[i]
// is cfgs[i]'s memo key, digest their trace's content address) that a
// previous process already computed decode from disk — a decode, not a
// simulation, so Simulations() stays untouched (store_smoke.sh's
// restart-warmth gate asserts exactly that). The rest go to run in one
// batch, count as simulations, and are persisted. Results are
// positional.
func (r *Runner) tiered(digest string, memoKeys []string, cfgs []sim.Config,
	run func([]sim.Config) ([]sim.Stats, error)) ([]sim.Stats, error) {
	out := make([]sim.Stats, len(cfgs))
	skeys := make([]store.Key, len(cfgs))
	var todo []sim.Config
	var todoAt []int
	for i, cfg := range cfgs {
		if r.sh.store != nil {
			skeys[i] = r.resultStoreKey(digest, memoKeys[i])
			if st, ok := r.storeGet(skeys[i]); ok {
				out[i] = st
				continue
			}
		}
		todo = append(todo, cfg)
		todoAt = append(todoAt, i)
	}
	if len(todo) == 0 {
		return out, nil
	}
	r.sh.sims.Add(uint64(len(todo)))
	fresh, err := run(todo)
	if err != nil {
		return nil, err
	}
	for j, st := range fresh {
		out[todoAt[j]] = st
		r.storePut(skeys[todoAt[j]], st)
	}
	return out, nil
}

// simulate computes cfgs for one app under sc: on the remote fleet
// when one is configured (the whole batch travels as one shard, so the
// worker runs exactly the configs a local run would), else locally,
// one sim.RunTrace per config over the batch's traceSource. Every
// source yields the same records, so the result does not depend on
// which one ran (internal/sim TestRunBufferMatchesRunApp).
func (r *Runner) simulate(app string, cfgs []sim.Config, sc vm.Scenario) ([]sim.Stats, error) {
	if rem := r.sh.remote; rem != nil {
		sts, err := rem.RunConfigs(r.Context(), app, sc, r.opts.Seed, r.opts.records(), cfgs)
		if err != nil {
			return nil, err
		}
		if len(sts) != len(cfgs) {
			return nil, fmt.Errorf("exp: remote returned %d stats for %d configs", len(sts), len(cfgs))
		}
		return sts, nil
	}
	open, err := r.traceSource(app, sc, len(cfgs))
	if err != nil {
		return nil, err
	}
	sts := make([]sim.Stats, len(cfgs))
	for i, cfg := range cfgs {
		tr, err := open()
		if err == nil {
			sts[i], err = sim.RunTrace(r.Context(), app, tr, cfg, r.opts.Seed)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: %s on %s/%s: %w", app, cfg.Label(), sc, err)
		}
	}
	return sts, nil
}

// RunConfigs simulates (memoised) one app across many configs under one
// scenario. It returns positionally: out[i] is cfgs[i]'s stats,
// bit-for-bit what Run(app, cfgs[i], sc) returns. Configs already in
// the memo cache are peeked out first; the rest are deduplicated and go
// down the tier ladder as one batch, so figures that sweep
// configurations over a fixed app generate the app's trace once, not
// once per config.
func (r *Runner) RunConfigs(app string, cfgs []sim.Config, sc vm.Scenario) ([]sim.Stats, error) {
	out := make([]sim.Stats, len(cfgs))
	keys := make([]string, len(cfgs))
	cached := make([]bool, len(cfgs))

	// Partition into already-memoised and to-compute, deduplicating the
	// latter (duplicate configs would otherwise each be simulated).
	uniqAt := make(map[string]int)
	var uniq []sim.Config
	var uniqKeys []string
	for i, cfg := range cfgs {
		keys[i] = r.key(app, cfg, sc)
		if st, ok := r.sh.cache.Get(keys[i]); ok {
			out[i] = st
			cached[i] = true
			continue
		}
		if _, seen := uniqAt[keys[i]]; !seen {
			uniqAt[keys[i]] = len(uniq)
			uniq = append(uniq, cfg)
			uniqKeys = append(uniqKeys, keys[i])
		}
	}
	if len(uniq) == 0 {
		return out, nil
	}
	// A fully stored sweep never touches the trace pool, so a restarted
	// daemon serves figures without re-materialising a single trace.
	fresh, err := r.tiered(r.traceDigest(app, sc), uniqKeys, uniq,
		func(todo []sim.Config) ([]sim.Stats, error) { return r.simulate(app, todo, sc) })
	if err != nil {
		return nil, err
	}
	return r.publish(out, keys, cached, uniqAt, fresh)
}

// publish writes a batch's fresh stats through the memo cache so later
// Run/RunConfigs calls (and figures sharing baselines) hit, and fills
// out positionally. A racing solo computation of the same key wins
// harmlessly: both computed identical stats.
func (r *Runner) publish(out []sim.Stats, keys []string, cached []bool,
	uniqAt map[string]int, fresh []sim.Stats) ([]sim.Stats, error) {

	for i := range out {
		if cached[i] {
			continue
		}
		st := fresh[uniqAt[keys[i]]]
		var err error
		out[i], err = r.sh.cache.Do(keys[i], func() (sim.Stats, error) { return st, nil })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TraceStats snapshots the shared trace pool counters for the daemon's
// /metrics endpoint.
func (r *Runner) TraceStats() replay.Stats { return r.sh.traces.Stats() }
