package sim

import (
	"context"
	"math/rand"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/vm"
)

// TestRunBufferMatchesRunApp is the replay-path determinism contract:
// materialising a trace and replaying it must reproduce the live run
// bit-for-bit, field for field.
func TestRunBufferMatchesRunApp(t *testing.T) {
	prof := smallProf(t, "libquantum", 4)
	cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	for _, sc := range []vm.Scenario{vm.ScenarioNormal, vm.ScenarioFragmented} {
		live, err := RunApp(context.Background(), prof, cfg, sc, 3, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Materialize(prof, sc, 3, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunBuffer(context.Background(), prof.Name, buf, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if live != replayed {
			t.Errorf("%s: replayed stats differ from live run\nlive:   %+v\nreplay: %+v", sc, live, replayed)
		}
	}
}

// TestRunConfigsMatchesSoloRuns asserts the multi-config sweep returns,
// positionally, exactly what per-config live runs (RunApp, same seed
// and record count) return — including duplicate configurations.
func TestRunConfigsMatchesSoloRuns(t *testing.T) {
	prof := smallProf(t, "gcc", 2)
	buf, err := Materialize(prof, vm.ScenarioNormal, 7, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		Baseline(cpu.OOO()),
		SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		SIPT(cpu.OOO(), 64, 4, core.ModeNaive),
		SIPT(cpu.OOO(), 32, 2, core.ModeCombined), // duplicate: simulated independently
	}
	batch, err := RunConfigs(context.Background(), prof.Name, buf, cfgs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		solo, err := RunApp(context.Background(), prof, cfg, vm.ScenarioNormal, 7, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != solo {
			t.Errorf("config %d (%s): sweep differs from solo\nsweep: %+v\nsolo:  %+v",
				i, cfg.Label(), batch[i], solo)
		}
	}
	if batch[1] != batch[3] {
		t.Error("duplicate configs produced different results")
	}
}

// TestRunConfigsCancellation asserts the multi-config loop honours ctx like
// the solo paths do.
func TestRunConfigsCancellation(t *testing.T) {
	prof := smallProf(t, "gcc", 2)
	buf, err := Materialize(prof, vm.ScenarioNormal, 7, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunConfigs(ctx, prof.Name, buf, []Config{Baseline(cpu.OOO())}, 7); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}

// TestRunConfigsRandomizedMatchesSolo is the multi-config sweep's property
// test: for randomized config sets — 1..16 lanes drawn with
// replacement, so duplicates occur — the sweep must return,
// positionally, the byte-for-byte result of a live RunApp run (same
// seed and record count) of each lane.
func TestRunConfigsRandomizedMatchesSolo(t *testing.T) {
	prof := smallProf(t, "ycsb", 2)
	const recs = 8_000
	buf, err := Materialize(prof, vm.ScenarioNormal, 5, recs)
	if err != nil {
		t.Fatal(err)
	}
	pool := []Config{
		Baseline(cpu.OOO()),
		Baseline(cpu.InOrder()),
		SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		SIPT(cpu.OOO(), 32, 2, core.ModeIdeal),
		SIPT(cpu.OOO(), 32, 2, core.ModeBypass),
		SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		SIPT(cpu.OOO(), 64, 4, core.ModeCombined),
		SIPT(cpu.OOO(), 128, 4, core.ModeCombined),
		SIPT(cpu.InOrder(), 64, 4, core.ModeNaive),
	}
	rng := rand.New(rand.NewSource(99))
	solo := make(map[int]Stats) // pool index -> stats, computed once
	for trial := 0; trial < 4; trial++ {
		n := 1 + rng.Intn(16)
		cfgs := make([]Config, n)
		picks := make([]int, n)
		for i := range cfgs {
			picks[i] = rng.Intn(len(pool))
			cfgs[i] = pool[picks[i]]
		}
		batch, err := RunConfigs(context.Background(), prof.Name, buf, cfgs, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, pi := range picks {
			want, ok := solo[pi]
			if !ok {
				want, err = RunApp(context.Background(), prof, pool[pi], vm.ScenarioNormal, 5, recs)
				if err != nil {
					t.Fatal(err)
				}
				solo[pi] = want
			}
			if batch[i] != want {
				t.Errorf("trial %d lane %d (%s): sweep differs from solo\nsweep: %+v\nsolo:  %+v",
					trial, i, cfgs[i].Label(), batch[i], want)
			}
		}
	}
}
