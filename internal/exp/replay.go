package exp

import (
	"errors"
	"fmt"

	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// errLiveGen marks a runner whose options disable trace materialisation
// (Options.LiveGen); replay-aware paths treat it like ErrUnpackable and
// stream from live generators instead.
var errLiveGen = errors.New("exp: live generation requested")

// errPoolOversize marks a trace too large for the pool to retain under
// its byte budget: replaying it would regenerate on every request, so
// the run degrades to live generation (counted — see noteDegraded).
var errPoolOversize = errors.New("exp: trace exceeds the pool's retainable size")

// poolKey is the trace-pool key for one (app, scenario) under the
// runner's current options. Records and seed are in the key, so derived
// views (WithOptions) sharing one pool never alias.
func (r *Runner) poolKey(app string, sc vm.Scenario) replay.Key {
	return replay.Key{App: app, Scenario: sc, Seed: r.opts.Seed, Records: r.opts.records()}
}

// buffer returns the shared materialised trace for (app, sc), building
// it on first use. Errors wrapping replay.ErrUnpackable or errLiveGen
// mean "stream live instead"; anything else is a real failure.
func (r *Runner) buffer(app string, sc vm.Scenario) (*replay.Buffer, error) {
	if r.opts.LiveGen {
		return nil, errLiveGen
	}
	// A trace the pool cannot retain would be rebuilt on every request —
	// strictly worse than live generation (which also honours the run's
	// context mid-trace, where materialisation does not).
	records := r.opts.records()
	if records > uint64(r.sh.traces.MaxBufferBytes())/replay.BytesPerRecord {
		r.sh.traces.NoteOversize()
		return nil, errPoolOversize
	}
	return r.sh.traces.Get(r.poolKey(app, sc))
}

// useLive reports whether err is one of the deliberate
// fall-back-to-live-generation conditions: an explicit LiveGen request,
// a scenario the packed format cannot express, or graceful degradation
// (byte-budget overflow, an eviction storm).
func useLive(err error) bool {
	return errors.Is(err, replay.ErrUnpackable) || errors.Is(err, errLiveGen) ||
		errors.Is(err, errPoolOversize) || errors.Is(err, replay.ErrEvicted)
}

// noteDegraded counts live-generation fallbacks that are *degradations*
// — the pool wanted to serve the trace but could not (byte budget,
// eviction storm) — as opposed to deliberate choices (Options.LiveGen)
// or structural impossibility (ErrUnpackable). runs is how many
// simulations or trace reads the fallback serves. The daemon exposes
// the count as serve_degraded_runs_total.
func (r *Runner) noteDegraded(err error, runs int) {
	if errors.Is(err, errPoolOversize) || errors.Is(err, replay.ErrEvicted) {
		r.sh.degraded.Add(uint64(runs))
	}
}

// traceReader returns (app, sc)'s record stream under the runner's
// options: a cursor over the pooled buffer when materialisation is
// available, else a fresh live generator producing the identical
// records. Figures that analyse raw traces (Fig. 5, the predictor
// ablations) drain this instead of constructing generators by hand, so
// they too share one materialisation per app.
func (r *Runner) traceReader(app string, sc vm.Scenario) (trace.Reader, error) {
	buf, err := r.buffer(app, sc)
	if err == nil {
		return buf.Cursor(), nil
	}
	if !useLive(err) {
		return nil, err
	}
	r.noteDegraded(err, 1)
	prof, err := workload.Lookup(app)
	if err != nil {
		return nil, err
	}
	sys := sim.NewSystem(sc, r.opts.Seed, prof)
	return workload.NewGenerator(prof, sys, r.opts.Seed, r.opts.records())
}

// The runner's tier ladder, shared by Run, RunConfigs and RunTrace:
//
//	memo cache -> store -> remote -> fused buffer replay -> live RunApp
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

// simulate computes cfgs for one app under sc on the first tier that
// can take them: the remote fleet when one is configured (the whole
// batch travels as one shard, so the worker's fused pass covers exactly
// the lanes a local run would); else one fused pass over the app's
// pooled materialised trace (generation paid once per app, not once
// per config); else, when the trace cannot be materialised or pooled,
// live generation per config. The tiers are interchangeable: replay
// reproduces the live run bit for bit (internal/sim
// TestRunBufferMatchesRunApp) and fused lanes equal solo runs.
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
	buf, err := r.buffer(app, sc)
	if err == nil {
		sts, err := sim.RunConfigs(r.Context(), app, buf, cfgs, r.opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("exp: %s/%s (%d configs): %w", app, sc, len(cfgs), err)
		}
		return sts, nil
	}
	if !useLive(err) {
		return nil, err
	}
	r.noteDegraded(err, len(cfgs))
	prof, err := workload.Lookup(app)
	if err != nil {
		return nil, err
	}
	sts := make([]sim.Stats, len(cfgs))
	for i, cfg := range cfgs {
		if sts[i], err = sim.RunApp(r.Context(), prof, cfg, sc, r.opts.Seed, r.opts.records()); err != nil {
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
// configurations over a fixed app turn K decode+sim passes into one
// fused pass over the app's materialised trace.
func (r *Runner) RunConfigs(app string, cfgs []sim.Config, sc vm.Scenario) ([]sim.Stats, error) {
	out := make([]sim.Stats, len(cfgs))
	keys := make([]string, len(cfgs))
	cached := make([]bool, len(cfgs))

	// Partition into already-memoised and to-compute, deduplicating the
	// latter (duplicate configs would otherwise burn a fused lane each).
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

// publish writes a fused batch's stats through the memo cache so later
// Run/RunConfigs calls (and figures sharing baselines) hit, and fills
// out positionally. A racing solo computation of the same key wins
// harmlessly: both computed identical stats.
func (r *Runner) publish(out []sim.Stats, keys []string, cached []bool,
	uniqAt map[string]int, fused []sim.Stats) ([]sim.Stats, error) {

	for i := range out {
		if cached[i] {
			continue
		}
		st := fused[uniqAt[keys[i]]]
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
