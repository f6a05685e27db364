package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// refRunMix is the plain reference for a quad-core mix: one config per
// call, four drawing generators (no programs), and a full argmin scan
// before every step (no run-stepping).
func refRunMix(mix workload.Mix, profs [4]workload.Profile, cfg Config, sc vm.Scenario, seed int64, recordsPerCore uint64) (MixStats, error) {
	cfg.Cores = 4
	sys := NewSystem(sc, seed, profs[:]...)
	var gens [4]*workload.Generator
	for i := range gens {
		gen, err := workload.NewGenerator(profs[i], sys, seed+int64(i), recordsPerCore)
		if err != nil {
			return MixStats{}, err
		}
		gens[i] = gen
	}
	acct := energy.New(cfg.energyParams())
	llc := newSharedLLC(cfg.llcConfig())
	mem := dram.New(dramConfig())

	type lane struct {
		gen      *workload.Generator
		h        *Hierarchy
		core     *cpu.Core
		consumed uint64
		done     bool
		snapshot cpu.Result
	}
	lanes := make([]*lane, 4)
	for i := range lanes {
		h := newHierarchy(cfg, seed+int64(i), llc, mem, acct)
		lanes[i] = &lane{gen: gens[i], h: h, core: cpu.NewCore(cfg.Core, h)}
	}
	remaining := 4
	var rec trace.Record
	for remaining > 0 {
		li := -1
		var minCycles uint64
		for i, l := range lanes {
			if li == -1 || l.core.Cycles() < minCycles {
				li = i
				minCycles = l.core.Cycles()
			}
		}
		l := lanes[li]
		if err := l.gen.NextInto(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				return MixStats{}, err
			}
			if !l.done {
				l.snapshot = l.core.Result()
				l.done = true
				remaining--
				if remaining == 0 {
					break
				}
			}
			l.gen.Reset()
			continue
		}
		l.core.StepPtr(&rec)
		l.consumed++
	}

	ms := MixStats{Config: cfg, Mix: mix}
	for i, l := range lanes {
		ms.PerCore[i] = collect(cfg, mix.Apps[i], l.snapshot, l.h, acct)
		ms.Consumed[i] = l.consumed
		if l.snapshot.Cycles > ms.Cycles {
			ms.Cycles = l.snapshot.Cycles
		}
	}
	ms.Energy = acct.Finish(ms.Cycles)
	for i := range ms.PerCore {
		ms.PerCore[i].Energy = ms.Energy
	}
	return ms, nil
}

// fig15Configs is Fig. 15's config list: the baseline, then SIPT with
// the combined predictor at each geometry (no-contig variants under
// ScenarioNoContig, as Fig. 18 builds them).
func fig15Configs(sc vm.Scenario) []Config {
	cfgs := []Config{Baseline(cpu.OOO())}
	for _, g := range SIPTGeometries() {
		cfg := SIPT(cpu.OOO(), g[0], g[1], core.ModeCombined)
		cfg.NoContig = sc == vm.ScenarioNoContig
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// mixProfiles looks up a mix's four profiles.
func mixProfiles(t *testing.T, mix workload.Mix) [4]workload.Profile {
	t.Helper()
	var profs [4]workload.Profile
	for i, name := range mix.Apps {
		profs[i] = workload.MustLookup(name)
	}
	return profs
}

// diffMixStats names the first field where two mix results differ.
func diffMixStats(got, want MixStats) string {
	if got.Consumed != want.Consumed {
		return fmt.Sprintf("Consumed %v, want %v", got.Consumed, want.Consumed)
	}
	if got.Cycles != want.Cycles {
		return fmt.Sprintf("Cycles %d, want %d", got.Cycles, want.Cycles)
	}
	for i := range got.PerCore {
		g, w := reflect.ValueOf(got.PerCore[i]), reflect.ValueOf(want.PerCore[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				return fmt.Sprintf("core %d %s: %+v, want %+v", i, g.Type().Field(f).Name,
					g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
	return "mix-level fields"
}

// checkMatchesReference runs every config through one runMixConfigs
// call and each through refRunMix, and requires identical MixStats.
func checkMatchesReference(t *testing.T, mix workload.Mix, profs [4]workload.Profile, sc vm.Scenario, seed int64, records uint64) {
	t.Helper()
	cfgs := fig15Configs(sc)
	got, err := runMixConfigs(context.Background(), mix, profs, cfgs, sc, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		want, err := refRunMix(mix, profs, cfg, sc, seed, records)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("%s %v seed %d records %d, config %s: %s", mix.Name, sc, seed, records,
				cfg.Label(), diffMixStats(got[k], want))
		}
	}
}

// TestRunMixConfigsMatchesReference: sharing recorded programs across
// configs and recycled passes, and stepping the earliest core in runs,
// changes no field of any MixStats relative to the plain loop.
func TestRunMixConfigsMatchesReference(t *testing.T) {
	mixes := workload.Mixes()
	for _, mix := range []workload.Mix{mixes[0], mixes[5], mixes[8]} {
		for _, seed := range []int64{1, 7} {
			for _, records := range []uint64{500, 3000} {
				checkMatchesReference(t, mix, mixProfiles(t, mix), vm.ScenarioNormal, seed, records)
			}
		}
	}
}

// TestRunMixConfigsMatchesReferenceScenarios covers every scenario,
// including fragmented memory and THP off.
func TestRunMixConfigsMatchesReferenceScenarios(t *testing.T) {
	mix := workload.Mixes()[2]
	for _, sc := range vm.Scenarios() {
		checkMatchesReference(t, mix, mixProfiles(t, mix), sc, 3, 1000)
	}
}

// TestRunMixConfigsMatchesReferenceChurn: a mix whose cores churn
// several times per pass (shrunk ChurnEvery) and demand-fault instead
// of pre-touching, so recorded remaps replay at their positions and
// against a buddy other cores keep changing.
func TestRunMixConfigsMatchesReferenceChurn(t *testing.T) {
	mix := workload.Mix{Name: "churn", Apps: [4]string{"gcc", "ycsb", "povray", "hmmer"}}
	profs := mixProfiles(t, mix)
	profs[0].ChurnEvery = 300
	profs[1].ChurnEvery = 170
	profs[1].FootprintMiB = 8
	for i, p := range profs {
		if i < 3 && p.PreTouch {
			t.Fatalf("%s pre-touches; the test wants demand-faulting cores", p.Name)
		}
	}
	for _, seed := range []int64{2, 5} {
		checkMatchesReference(t, mix, profs, vm.ScenarioNormal, seed, 2500)
	}
}
