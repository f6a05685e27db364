package exp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// TestRunnerKeyIncludesCores is the regression test for the memoisation
// collision: a 1-core and a 4-core run of the same app/geometry must
// not share a cache entry (the LLC capacity scales with Cores, so their
// stats differ). On the buggy key the second Run returned the first
// run's cached stats.
func TestRunnerKeyIncludesCores(t *testing.T) {
	r := NewRunner(Options{Records: 4_000, Seed: 1, Workers: 1})
	cfg1 := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	cfg4 := cfg1
	cfg4.Cores = 4

	if r.key("gcc", cfg1, vm.ScenarioNormal) == r.key("gcc", cfg4, vm.ScenarioNormal) {
		t.Fatal("memo keys for Cores=1 and Cores=4 collide")
	}

	st1, err := r.Run("gcc", cfg1, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	st4, err := r.Run("gcc", cfg4, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Config.Cores != 1 {
		t.Errorf("1-core run returned Config.Cores = %d", st1.Config.Cores)
	}
	if st4.Config.Cores != 4 {
		t.Errorf("4-core run returned Config.Cores = %d (stale cached stats?)", st4.Config.Cores)
	}
}

// TestRunnerKeyCoversAllConfigFields guards the key against future
// config fields being forgotten: every distinct configuration knob must
// produce a distinct key.
func TestRunnerKeyCoversAllConfigFields(t *testing.T) {
	r := NewRunner(Options{Records: 1_000, Seed: 1})
	base := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	variants := []sim.Config{}
	for _, mutate := range []func(*sim.Config){
		func(c *sim.Config) { c.Core = cpu.InOrder() },
		func(c *sim.Config) { c.L1SizeKiB = 64 },
		func(c *sim.Config) { c.L1Ways = 4 },
		func(c *sim.Config) { c.Mode = core.ModeNaive },
		func(c *sim.Config) { c.WayPrediction = true },
		func(c *sim.Config) { c.WayPrediction = true; c.PerfectWayPrediction = true },
		func(c *sim.Config) { c.NoContig = true },
		func(c *sim.Config) { c.Cores = 4 },
	} {
		v := base
		mutate(&v)
		variants = append(variants, v)
	}
	seen := map[string]int{r.key("app", base, vm.ScenarioNormal): -1}
	for i, v := range variants {
		k := r.key("app", v, vm.ScenarioNormal)
		if j, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d: %s", i, j, k)
		}
		seen[k] = i
	}
}

// TestRunnerSingleflight verifies that concurrent Runs of the same key
// simulate only once: the memoisation must deduplicate in-flight work,
// not just completed work.
func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(Options{Records: 2_000, Seed: 1, Workers: 4})
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive)

	var wg sync.WaitGroup
	var errs atomic.Int64
	results := make([]sim.Stats, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.Run("h264ref", cfg, vm.ScenarioNormal)
			if err != nil {
				errs.Add(1)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d concurrent runs failed", errs.Load())
	}
	if r.Simulations() != 1 {
		t.Errorf("simulations = %d, want 1 (in-flight dedup)", r.Simulations())
	}
	for i := 1; i < len(results); i++ {
		if results[i].Core != results[0].Core {
			t.Errorf("run %d returned different stats: %+v vs %+v",
				i, results[i].Core, results[0].Core)
		}
	}
}

// TestRunnerCacheBounded is the unbounded-memo-leak regression test: a
// Runner capped at CacheEntries must evict rather than grow when driven
// through many distinct configurations, while keys still resident keep
// hitting without re-simulating. (The 10k-distinct-key scale version of
// this property runs against the cache itself in internal/memo, where
// computes are cheap; here real simulations verify the Runner wiring.)
func TestRunnerCacheBounded(t *testing.T) {
	const cap = 8
	r := NewRunner(Options{Records: 500, Seed: 1, Workers: 1, CacheEntries: cap})

	// 24 distinct configs: 4 geometries x 3 modes x 2 scenarios.
	var keys int
	for _, g := range sim.SIPTGeometries() {
		for _, m := range []core.Mode{core.ModeVIPT, core.ModeNaive, core.ModeCombined} {
			for _, sc := range []vm.Scenario{vm.ScenarioNormal, vm.ScenarioFragmented} {
				if _, err := r.Run("h264ref", sim.SIPT(cpu.OOO(), g[0], g[1], m), sc); err != nil {
					t.Fatal(err)
				}
				keys++
				if n := r.CacheStats().Entries; n > cap {
					t.Fatalf("after %d distinct configs cache holds %d entries, cap %d", keys, n, cap)
				}
			}
		}
	}
	st := r.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("%d distinct configs through a %d-entry cache evicted nothing", keys, cap)
	}
	if r.Simulations() != uint64(keys) {
		t.Errorf("simulations = %d, want %d (all distinct)", r.Simulations(), keys)
	}

	// The most recent config is resident: re-running it must hit the
	// cache, not simulate again.
	before := r.Simulations()
	cfg := sim.SIPT(cpu.OOO(), 128, 4, core.ModeCombined)
	if _, err := r.Run("h264ref", cfg, vm.ScenarioFragmented); err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != before {
		t.Error("repeat of a resident config re-simulated instead of hitting the cache")
	}
	if r.CacheStats().Hits == 0 {
		t.Error("hit counter never advanced")
	}
}

// TestRunnerSharedViewsShareCache verifies WithOptions/WithContext
// views memoise into one cache without aliasing across seeds.
func TestRunnerSharedViewsShareCache(t *testing.T) {
	r := NewRunner(Options{Records: 500, Seed: 1, Workers: 1})
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive)
	st1, err := r.Run("h264ref", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}

	// Same options via a context-bound view: cache hit.
	v := r.WithContext(context.Background())
	st2, err := v.Run("h264ref", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 1 {
		t.Errorf("simulations = %d, want 1 (views share the cache)", r.Simulations())
	}
	if st1.Core != st2.Core {
		t.Error("views returned different stats for one key")
	}

	// A different seed through WithOptions must not alias.
	v2 := r.WithOptions(Options{Records: 500, Seed: 2, Workers: 1})
	st3, err := v2.Run("h264ref", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 2 {
		t.Errorf("simulations = %d, want 2 (distinct seed must re-simulate)", r.Simulations())
	}
	if st3.Core == st1.Core {
		t.Error("seed 2 returned seed 1's cached stats (key misses seed)")
	}
}

// TestRunnerCancelledRunNotCached verifies a context-cancelled Run is
// retried, not replayed from the cache.
func TestRunnerCancelledRunNotCached(t *testing.T) {
	r := NewRunner(Options{Records: 50_000_000, Seed: 1, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive)
	if _, err := r.WithContext(ctx).Run("h264ref", cfg, vm.ScenarioNormal); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := r.CacheStats().Entries; n != 0 {
		t.Fatalf("cancelled run left %d cache entries", n)
	}
	// Retry with a live context and a sane length succeeds.
	v := r.WithOptions(Options{Records: 500, Seed: 1, Workers: 1})
	if _, err := v.Run("h264ref", cfg, vm.ScenarioNormal); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedBatchCountsOncePerRun: a sweep whose trace the pool
// cannot hold degrades each of its configs to live generation exactly
// once — K degraded runs for K simulations — and skips the pool once
// for the whole batch.
func TestDegradedBatchCountsOncePerRun(t *testing.T) {
	// 20k records (320 KB) exceed one shard's slice of a 1 MiB pool.
	r := NewRunner(Options{Records: 20_000, Seed: 1, TracePoolMB: 1})
	cfgs := []sim.Config{
		sim.Baseline(cpu.OOO()),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
	}
	if _, err := r.RunConfigs("ycsb", cfgs, vm.ScenarioNormal); err != nil {
		t.Fatal(err)
	}
	if sims, deg := r.Simulations(), r.DegradedRuns(); sims != 3 || deg != 3 {
		t.Errorf("Simulations = %d, DegradedRuns = %d; want 3 and 3", sims, deg)
	}
	if n := r.TraceStats().Oversize; n != 1 {
		t.Errorf("pool oversize skips = %d, want 1 (one per batch)", n)
	}
}
