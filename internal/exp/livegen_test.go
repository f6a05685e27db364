package exp

import (
	"reflect"
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/fault"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// renderAll runs one experiment on the given runner and concatenates
// every rendered table.
func renderAll(t *testing.T, e Experiment, r *Runner) string {
	t.Helper()
	tabs, err := e.Run(r)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestReplayMatchesLiveGen is the replay engine's end-to-end equivalence
// gate: every experiment must render byte-identically whether runs
// replay materialised traces from the pool (the default) or regenerate
// each trace live per config (Options.LiveGen, the pre-replay path). A
// short trace and two apps keep the full experiment catalogue
// tractable.
func TestReplayMatchesLiveGen(t *testing.T) {
	opts := Options{
		Records: 5_000,
		Seed:    1,
		Apps:    []string{"libquantum", "gcc"},
		Workers: 2,
	}
	liveOpts := opts
	liveOpts.LiveGen = true
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			replayed := renderAll(t, e, NewRunner(opts))
			live := renderAll(t, e, NewRunner(liveOpts))
			if replayed != live {
				t.Errorf("%s: replayed output differs from live generation.\n--- replayed ---\n%s\n--- live ---\n%s",
					e.ID, replayed, live)
			}
		})
	}
}

// TestTraceSourceFallbacks runs one 3-config batch down each of
// traceSource's branches. The stats never depend on the branch; only
// the counters do: the pool is left alone under LiveGen, and only the
// pool's refusals (a trace too long to retain, an eviction storm)
// count as degraded runs, one per config.
func TestTraceSourceFallbacks(t *testing.T) {
	cfgs := []sim.Config{
		sim.Baseline(cpu.OOO()),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
	}
	base := Options{Records: 20_000, Seed: 1}
	cases := []struct {
		name     string
		opts     func(o *Options)
		storm    bool
		degraded uint64
		oversize uint64
	}{
		{name: "default", opts: func(*Options) {}},
		{name: "livegen", opts: func(o *Options) { o.LiveGen = true }},
		// 20k records (320 KB) exceed one shard's slice of a 1 MiB pool.
		{name: "oversize", opts: func(o *Options) { o.TracePoolMB = 1 }, degraded: 3, oversize: 1},
		{name: "evict-storm", opts: func(*Options) {}, storm: true, degraded: 3},
	}
	var want []sim.Stats
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.storm {
				spec, err := fault.ParseSpec("replay.pool.evict:1/1")
				if err != nil {
					t.Fatal(err)
				}
				if err := fault.Arm(spec, 1); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fault.Disarm)
			}
			opts := base
			tc.opts(&opts)
			r := NewRunner(opts)
			sts, err := r.RunConfigs("ycsb", cfgs, vm.ScenarioNormal)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = sts
			} else if !reflect.DeepEqual(sts, want) {
				t.Errorf("stats differ from the default source")
			}
			if n := r.DegradedRuns(); n != tc.degraded {
				t.Errorf("DegradedRuns = %d, want %d", n, tc.degraded)
			}
			ps := r.TraceStats()
			if ps.Oversize != tc.oversize {
				t.Errorf("pool Oversize = %d, want %d", ps.Oversize, tc.oversize)
			}
			if opts.LiveGen && ps.Hits+ps.Misses != 0 {
				t.Errorf("LiveGen touched the pool: %+v", ps)
			}
		})
	}
}
