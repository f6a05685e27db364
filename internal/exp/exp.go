// Package exp defines one reproducible experiment per table and figure
// in the paper's evaluation, mapping each onto the simulator and
// rendering the same rows/series the paper reports. cmd/siptbench and
// the repository-level benchmarks drive these definitions.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sipt/internal/memo"
	"sipt/internal/replay"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// Remote offloads simulation batches to a fleet. The fabric
// coordinator implements it: a Runner built with Options.Remote
// dispatches every uncached config batch as one shard — keyed by the
// (app, scenario, seed, records) trace so worker replay pools stay hot
// — and keeps all memoisation, averaging, and table assembly local, so
// a distributed sweep is bit-identical to a single-node one.
//
// Implementations must return stats positionally (out[i] is cfgs[i]'s
// result), exactly what the local path would produce.
type Remote interface {
	RunConfigs(ctx context.Context, app string, sc vm.Scenario,
		seed int64, records uint64, cfgs []sim.Config) ([]sim.Stats, error)
}

// Options configures a harness run.
type Options struct {
	// Records is the per-app trace length (0 = DefaultRecords).
	Records uint64
	// Seed drives every stochastic component deterministically.
	Seed int64
	// Apps restricts the application list (nil = the 26 figure apps).
	Apps []string
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the memoisation cache (0 =
	// memo.DefaultCapacity). A resident process (siptd) relies on this
	// bound; one-shot CLI runs never reach it.
	CacheEntries int
	// TracePoolMB bounds the shared materialised-trace pool in MiB (0 =
	// replay.DefaultBudgetBytes). Like CacheEntries it is fixed at
	// construction; WithOptions views ignore it.
	TracePoolMB int
	// LiveGen disables trace materialisation: every run streams from a
	// live generator, as before the replay engine. Results are identical
	// either way (the golden and replay-versus-live tests depend on it);
	// the switch trades the pool's memory for repeated generation.
	LiveGen bool
	// Remote, when non-nil, offloads simulation batches to a fleet (the
	// fabric coordinator). Like CacheEntries it is fixed at
	// construction and shared by every derived view; the field in a
	// WithOptions argument is ignored. Experiments that analyse raw
	// traces rather than running configs (Fig. 5, the predictor
	// ablations) and the multiprogrammed mixes (Tab. III, Fig. 15) stay
	// local regardless.
	Remote Remote
	// Store, when non-nil, adds a persistent content-addressed tier
	// under the memo cache (see store.go): simulation results survive
	// restarts and warm instantly. Synthetic traces are never stored; a
	// result miss regenerates its trace.
	// Like Remote it is fixed at construction and shared by every
	// derived view; the field in a WithOptions argument is ignored.
	Store *store.Store
}

// DefaultRecords is the harness trace length per app.
const DefaultRecords = 300_000

func (o Options) records() uint64 {
	if o.Records == 0 {
		return DefaultRecords
	}
	return o.Records
}

func (o Options) apps() []string {
	if len(o.Apps) == 0 {
		return workload.FigureApps()
	}
	return o.Apps
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runnerShared is the state all derived views of one Runner share: the
// bounded memo cache and the simulation counter. The cache gives
// singleflight semantics (concurrent Runs of the same key wait for one
// simulation) and, unlike the unbounded map it replaced, stays within a
// fixed entry budget — a resident daemon serving sweeps for days cannot
// leak results.
type runnerShared struct {
	cache *memo.Cache[sim.Stats]
	// traces holds materialised record buffers, shared the same way:
	// byte-budgeted, singleflight, one entry per (app, scenario, seed,
	// records).
	traces *replay.Pool
	// remote, when non-nil, receives every uncached config batch
	// instead of the local simulator (Options.Remote; fixed at
	// construction so all derived views dispatch consistently).
	remote Remote
	// store, when non-nil, is the persistent tier under cache
	// (Options.Store; fixed at construction).
	store *store.Store
	sims  atomic.Uint64
	// degraded counts runs that fell back to live generation because the
	// trace pool could not serve them (byte budget, eviction storm) —
	// the graceful-degradation ladder's observable step.
	degraded atomic.Uint64
}

// Runner executes simulations with memoisation, so figures sharing runs
// (e.g. Fig. 6/7 and Fig. 13/14 share baselines) pay once — including
// when the sharing requests arrive concurrently from parallel workers.
//
// Derived runners (WithContext, WithOptions) share the cache and the
// simulation counter with their parent; the siptd daemon uses this to
// serve many requests with different options from one bounded cache.
type Runner struct {
	opts Options
	ctx  context.Context // base context for Run calls; nil = Background
	ckpt func(store.Key) // fired after each successful store Put; nil = off
	sh   *runnerShared
}

// NewRunner creates a Runner with a fresh result cache and trace pool.
// A pool miss regenerates the trace from its workload profile; the
// store, if any, holds results only.
func NewRunner(opts Options) *Runner {
	sh := &runnerShared{
		cache:  memo.New[sim.Stats](opts.CacheEntries, 0),
		remote: opts.Remote,
		store:  opts.Store,
	}
	sh.traces = replay.NewPool(int64(opts.TracePoolMB)<<20, 0, func(k replay.Key) (*replay.Buffer, error) {
		prof, err := workload.Lookup(k.App)
		if err != nil {
			return nil, err
		}
		return sim.Materialize(prof, k.Scenario, k.Seed, k.Records)
	})
	return &Runner{opts: opts, sh: sh}
}

// WithContext returns a view of r whose Run calls are bound to ctx
// (cancellation and deadlines propagate into the simulation loops). The
// view shares r's cache and counters.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// WithOptions returns a view of r running under different options while
// sharing its cache and counters. The memo key covers every option that
// affects results (seed, records), so heterogeneous views can never
// alias each other's entries. CacheEntries is fixed at construction and
// ignored here.
func (r *Runner) WithOptions(opts Options) *Runner {
	r2 := *r
	r2.opts = opts
	return &r2
}

// WithCheckpoint returns a view of r that calls fn with each result key
// the view persists to the store. The siptd durability layer is the
// user: fn journals the key as a sweep checkpoint, so after a crash
// RunConfigs' store pre-partition serves every checkpointed lane from
// disk and only unrecorded lanes re-simulate. A nil fn disables the
// hook, so callers can pass their maybe-nil callback unconditionally.
func (r *Runner) WithCheckpoint(fn func(store.Key)) *Runner {
	r2 := *r
	r2.ckpt = fn
	return &r2
}

// WithFreshCache returns a view of r with a fresh (empty) memo cache
// and a fresh simulation counter that still shares r's trace pool,
// persistent store, and remote. Every Run through the view re-simulates
// (nothing is memoised yet) while trace materialisation stays paid-once
// in the shared pool. The benchmark harness is the motivating user: it
// measures repeated full re-simulations without re-measuring trace
// synthesis.
func (r *Runner) WithFreshCache() *Runner {
	r2 := *r
	r2.sh = &runnerShared{
		cache:  memo.New[sim.Stats](r.opts.CacheEntries, 0),
		traces: r.sh.traces,
		remote: r.sh.remote,
		store:  r.sh.store,
	}
	return &r2
}

// Context returns the context Run calls are bound to (never nil).
func (r *Runner) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Simulations returns how many simulations actually started (cache
// misses); the benchmark harness reports it alongside wall time.
func (r *Runner) Simulations() uint64 { return r.sh.sims.Load() }

// DegradedRuns returns how many runs degraded from trace replay to live
// generation because the pool could not serve them (byte budget or an
// eviction storm). The daemon exposes it as serve_degraded_runs_total.
func (r *Runner) DegradedRuns() uint64 { return r.sh.degraded.Load() }

// CacheStats snapshots the shared memo cache counters (hits, misses,
// evictions, live entries) for the daemon's /metrics endpoint.
func (r *Runner) CacheStats() memo.Stats { return r.sh.cache.Stats() }

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// key derives the memoisation key from the *full* sim.Config (plus the
// app, scenario, trace length, and seed). Formatting the whole struct
// keeps the key exhaustive by construction: a config field that changes
// simulation behaviour (e.g. Cores, which scales the LLC) can never be
// silently omitted, and newly added fields are picked up automatically.
// Seed and records are in the key because derived views (WithOptions)
// share one cache across heterogeneous requests.
func (r *Runner) key(app string, cfg sim.Config, sc vm.Scenario) string {
	return fmt.Sprintf("%s|%+v|%s|%d|%d", app, cfg, sc, r.opts.records(), r.opts.Seed)
}

// Run simulates (memoised) one app on one config under a scenario: a
// one-config trip down RunConfigs' tier ladder (see replay.go).
// Concurrent calls with the same key share a single simulation. Failed
// runs — including ones cancelled through the runner's context — are
// not cached: the next Run of that key retries.
func (r *Runner) Run(app string, cfg sim.Config, sc vm.Scenario) (sim.Stats, error) {
	return r.runOne(r.key(app, cfg, sc), r.traceDigest(app, sc), cfg,
		func(cfgs []sim.Config) ([]sim.Stats, error) { return r.simulate(app, cfgs, sc) })
}

// forEach runs fn over items with at most Options.Workers calls in
// flight and returns the results by position: out[i] is fn(items[i]).
func forEach[S, T any](r *Runner, items []S, fn func(S) (T, error)) ([]T, error) {
	out := make([]T, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, r.opts.workers())
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it S) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = fn(it)
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// A mean averages one column of a results table: hmean for speedups,
// amean for fractions and energies, as the paper does.
type mean func([]float64) float64

// repeatMean is n columns averaged the same way.
func repeatMean(m mean, n int) []mean {
	ms := make([]mean, n)
	for i := range ms {
		ms[i] = m
	}
	return ms
}

// appTable is the layout of the paper's per-app figures: row computes
// one value per column for each app (concurrently, see forEach), and t
// gets one row per app in app order followed by an Average row whose
// j-th cell is means[j] over column j. It returns t as the experiment's
// one table.
func appTable(r *Runner, t *report.Table, means []mean,
	row func(app string) ([]float64, error)) ([]*report.Table, error) {
	apps := r.opts.apps()
	vals, err := forEach(r, apps, row)
	if err != nil {
		return nil, err
	}
	addRows(t, apps, vals)
	averageRow(t, "Average", means, vals)
	return []*report.Table{t}, nil
}

// addRows adds one row per label: the label, then vals[i] formatted
// with report.F.
func addRows(t *report.Table, labels []string, vals [][]float64) {
	for i, label := range labels {
		cells := []string{label}
		for _, v := range vals[i] {
			cells = append(cells, report.F(v))
		}
		t.AddRow(cells...)
	}
}

// averageRow adds one row: the label, then means[j] over column j of
// vals, in row order.
func averageRow(t *report.Table, label string, means []mean, vals [][]float64) {
	cells := []string{label}
	col := make([]float64, len(vals))
	for j, m := range means {
		for i, v := range vals {
			col[i] = v[j]
		}
		cells = append(cells, report.F(m(col)))
	}
	t.AddRow(cells...)
}

// hmean returns the harmonic mean (the paper's speedup average).
func hmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += 1 / v
	}
	return float64(len(vs)) / s
}

// amean returns the arithmetic mean (the paper's energy average).
func amean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Experiment couples an identifier with its generator function.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) ([]*report.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Tab. I: L1 cache configurations", Tab1},
		{"fig1", "Fig. 1: L1 latency vs configuration (CACTI model)", Fig1},
		{"tab2", "Tab. II: simulated system configurations", Tab2},
		{"fig2", "Fig. 2: IPC of ideal L1 configs, OOO core", Fig2},
		{"fig3", "Fig. 3: IPC of ideal L1 configs, in-order core", Fig3},
		{"fig5", "Fig. 5: fraction of correct speculations vs index bits", Fig5},
		{"fig6", "Fig. 6: naive SIPT IPC and extra accesses", Fig6},
		{"fig7", "Fig. 7: naive SIPT cache-hierarchy energy", Fig7},
		{"fig9", "Fig. 9: perceptron bypass predictor outcome breakdown", Fig9},
		{"fig12", "Fig. 12: combined predictor accuracy", Fig12},
		{"fig13", "Fig. 13: SIPT+IDB IPC and extra accesses", Fig13},
		{"fig14", "Fig. 14: SIPT+IDB cache-hierarchy energy", Fig14},
		{"tab3", "Tab. III: multiprogrammed workloads", Tab3},
		{"fig15", "Fig. 15: quad-core SIPT with IDB", Fig15},
		{"fig16", "Fig. 16: way prediction IPC and accuracy", Fig16},
		{"fig17", "Fig. 17: way prediction energy", Fig17},
		{"fig18", "Fig. 18: sensitivity to memory conditions", Fig18},
		// Ablations beyond the paper's figures, covering the design
		// choices its text discusses qualitatively.
		{"abl-pred", "Ablation: bypass predictor design sensitivity", AblationPredictor},
		{"abl-idb", "Ablation: IDB entry-count sensitivity", AblationIDB},
		{"abl-slow", "Ablation: SIPT design progression", AblationSlowPath},
		{"abl-way", "Ablation: way predictor design", AblationWayPredictor},
		// Extensions: the paper's qualitative discussions made runnable.
		{"ext-replay", "Extension: scheduler replay pressure (Sec. VII-C)", ExtReplay},
		{"ext-coloring", "Extension: page coloring vs speculation (Sec. II-D)", ExtColoring},
		{"ext-icache", "Extension: SIPT for instruction caches (future work)", ExtICache},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}
