package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// testRecords keeps unit-test runs fast.
const testRecords = 20_000

// smallProf shrinks a named profile for tests.
func smallProf(t *testing.T, name string, mib float64) workload.Profile {
	t.Helper()
	p, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p.FootprintMiB = mib
	return p
}

func TestConfigValidateAndLabel(t *testing.T) {
	b := Baseline(cpu.OOO())
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Label() != "vipt-32K8w" {
		t.Errorf("Label = %q", b.Label())
	}
	s := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	if s.Label() != "combined-32K2w" {
		t.Errorf("Label = %q", s.Label())
	}
	bad := b
	bad.Cores = 3
	if err := bad.Validate(); err == nil {
		t.Error("3 cores accepted")
	}
	bad = b
	bad.L1Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 ways accepted")
	}
	bad = b
	bad.L1Ways = 32
	if err := bad.Validate(); err == nil {
		t.Error("32 ways accepted")
	}
}

func TestHierarchyLevels(t *testing.T) {
	ooo := Baseline(cpu.OOO())
	if !ooo.threeLevel() {
		t.Error("OOO system must be three-level")
	}
	ino := Baseline(cpu.InOrder())
	if ino.threeLevel() {
		t.Error("in-order system must be two-level")
	}
	if got := ooo.llcConfig().SizeBytes; got != 2<<20 {
		t.Errorf("OOO LLC = %d, want 2 MiB", got)
	}
	if got := ino.llcConfig().SizeBytes; got != 1<<20 {
		t.Errorf("in-order LLC = %d, want 1 MiB", got)
	}
	quad := ooo
	quad.Cores = 4
	if got := quad.llcConfig().SizeBytes; got != 8<<20 {
		t.Errorf("quad LLC = %d, want 8 MiB", got)
	}
}

func TestRunAppBaseline(t *testing.T) {
	st, err := RunApp(context.Background(), smallProf(t, "h264ref", 2), Baseline(cpu.OOO()),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if st.Core.Instructions == 0 || st.Core.Cycles == 0 {
		t.Fatal("empty run")
	}
	ipc := st.IPC()
	if ipc <= 0.1 || ipc > 6 {
		t.Errorf("baseline IPC = %.3f, implausible", ipc)
	}
	// Baseline VIPT never speculates: everything is "fast" (offset-only
	// indexing) with zero extra accesses.
	if st.L1.Extra != 0 {
		t.Errorf("baseline produced %d extra accesses", st.L1.Extra)
	}
	if hr := st.L1C.HitRate(); hr < 0.5 {
		t.Errorf("L1 hit rate %.2f suspiciously low", hr)
	}
	if st.Energy.Total() <= 0 {
		t.Error("no energy accounted")
	}
	if st.TLB.Lookups != st.L1.Accesses {
		t.Errorf("TLB lookups %d != L1 accesses %d", st.TLB.Lookups, st.L1.Accesses)
	}
}

func TestRunAppDeterministic(t *testing.T) {
	run := func() Stats {
		st, err := RunApp(context.Background(), smallProf(t, "gcc", 2), SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
			vm.ScenarioNormal, 7, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Core != b.Core || a.L1 != b.L1 {
		t.Error("simulation not deterministic")
	}
}

func TestSIPTIdealFasterThanBaselineOnLatencySensitiveApp(t *testing.T) {
	prof := smallProf(t, "h264ref", 2)
	base, err := RunApp(context.Background(), prof, Baseline(cpu.OOO()), vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeIdeal),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.IPC() <= base.IPC() {
		t.Errorf("ideal 2-cycle L1 IPC %.3f <= baseline 4-cycle IPC %.3f",
			ideal.IPC(), base.IPC())
	}
}

func TestCombinedBeatsNaiveOnBadSpeculationApp(t *testing.T) {
	// calculix is one of the paper's seven low-speculation apps: naive
	// SIPT generates many extra accesses; combined mostly fixes it.
	prof := smallProf(t, "calculix", 2)
	naive, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if naive.L1.FastFraction() > 0.5 {
		t.Errorf("calculix naive fast fraction %.2f; profile should speculate poorly",
			naive.L1.FastFraction())
	}
	if comb.L1.FastFraction() < naive.L1.FastFraction()+0.2 {
		t.Errorf("combined fast %.2f vs naive %.2f; IDB not recovering",
			comb.L1.FastFraction(), naive.L1.FastFraction())
	}
	if comb.L1.Extra >= naive.L1.Extra {
		t.Errorf("combined extra %d >= naive extra %d", comb.L1.Extra, naive.L1.Extra)
	}
}

func TestBypassKillsExtraAccesses(t *testing.T) {
	prof := smallProf(t, "calculix", 2)
	naive, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeBypass),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if byp.L1.Extra*2 >= naive.L1.Extra {
		t.Errorf("bypass extra %d vs naive %d; predictor ineffective",
			byp.L1.Extra, naive.L1.Extra)
	}
	if byp.Bypass.Accuracy() < 0.9 {
		t.Errorf("bypass predictor accuracy %.3f, paper reports >0.9", byp.Bypass.Accuracy())
	}
}

func TestHugePageAppSpeculatesWell(t *testing.T) {
	st, err := RunApp(context.Background(), smallProf(t, "libquantum", 8), SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if ff := st.L1.FastFraction(); ff < 0.85 {
		t.Errorf("libquantum naive fast fraction %.2f, want >= 0.85 (huge pages)", ff)
	}
}

func TestEnergySIPTBelowBaseline(t *testing.T) {
	prof := smallProf(t, "hmmer", 2)
	base, err := RunApp(context.Background(), prof, Baseline(cpu.OOO()), vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	sipt, err := RunApp(context.Background(), prof, SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if sipt.Energy.Total() >= base.Energy.Total() {
		t.Errorf("SIPT energy %.3g >= baseline %.3g", sipt.Energy.Total(), base.Energy.Total())
	}
}

func TestWayPredictionSavesEnergy(t *testing.T) {
	prof := smallProf(t, "hmmer", 2)
	plain := Baseline(cpu.OOO())
	st1, err := RunApp(context.Background(), prof, plain, vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	wp := plain
	wp.WayPrediction = true
	st2, err := RunApp(context.Background(), prof, wp, vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Energy.DynamicJ[0] >= st1.Energy.DynamicJ[0] {
		t.Errorf("way prediction did not reduce L1 dynamic energy: %.3g vs %.3g",
			st2.Energy.DynamicJ[0], st1.Energy.DynamicJ[0])
	}
	if acc := st2.L1.WayAccuracy(); acc < 0.6 {
		t.Errorf("way accuracy %.2f too low", acc)
	}
}

func TestInOrderRuns(t *testing.T) {
	st, err := RunApp(context.Background(), smallProf(t, "calculix", 2), Baseline(cpu.InOrder()),
		vm.ScenarioNormal, 1, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0 || st.IPC() > 2 {
		t.Errorf("in-order IPC = %.3f", st.IPC())
	}
	if st.L2.Accesses != 0 {
		t.Error("two-level hierarchy touched an L2")
	}
}

func TestRunMix(t *testing.T) {
	mix := workload.Mixes()[0] // h264ref, hmmer, perlbench, povray
	// Shrink footprints via a custom mix of the same names is not
	// possible (profiles are looked up by name), so use few records.
	ms, err := RunMix(context.Background(), mix, SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 3, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if ms.SumIPC() <= 0 {
		t.Fatal("zero throughput")
	}
	for i, c := range ms.PerCore {
		if c.Core.Instructions == 0 {
			t.Errorf("core %d ran no instructions", i)
		}
		if c.App != mix.Apps[i] {
			t.Errorf("core %d app = %s, want %s", i, c.App, mix.Apps[i])
		}
	}
	if ms.Cycles == 0 || ms.Energy.Total() <= 0 {
		t.Error("missing mix-level accounting")
	}
	if r := ms.ExtraAccessRate(); r < 0 || r > 1 {
		t.Errorf("extra access rate = %v", r)
	}
}

// TestRunMixRecyclesFinishedCores is the regression test for the
// trace-recycle fix: a core that finishes its first pass must restart
// its trace and keep generating contention for the stragglers (the
// paper's methodology), rather than going idle. On the buggy code every
// core consumed exactly recordsPerCore and no post-snapshot LLC traffic
// existed.
func TestRunMixRecyclesFinishedCores(t *testing.T) {
	mix := workload.Mixes()[0] // h264ref, hmmer, perlbench, povray
	const records = 3000
	ms, err := RunMix(context.Background(), mix, SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 3, records)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, n := range ms.Consumed {
		if n < records {
			t.Errorf("core %d consumed %d records, want >= %d (first pass)", i, n, records)
		}
		total += n
	}
	if total <= 4*records {
		t.Errorf("no recycled contention traffic: consumed %v, want total > %d",
			ms.Consumed, 4*records)
	}
	// Finished cores keep issuing traffic into their private hierarchy
	// (and through it, the shared LLC): their L1 demand-access counters
	// must run past the snapshot taken at the end of the first pass.
	recycled := 0
	for i := range ms.PerCore {
		snap := ms.PerCore[i].Core.Loads + ms.PerCore[i].Core.Stores
		if ms.PerCore[i].L1.Accesses > snap {
			recycled++
		}
	}
	if recycled == 0 {
		t.Error("no core issued L1 traffic past its snapshot; recycling is not happening")
	}
	// The IPC snapshot must still reflect the first pass only.
	for i := range ms.PerCore {
		if ms.PerCore[i].Core.Instructions == 0 {
			t.Errorf("core %d snapshot empty", i)
		}
	}
}

// TestRunMixCancellation: a mix started on an already cancelled context
// fails with an error wrapping context.Canceled instead of running.
func TestRunMixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMix(ctx, workload.Mixes()[0], SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 3, 4000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
}

// expiringCtx is a context whose deadline passes at its expireAt-th
// Err poll, so a test can tell how many polls a loop made.
type expiringCtx struct {
	context.Context
	polls, expireAt int
}

func (c *expiringCtx) Err() error {
	c.polls++
	if c.polls >= c.expireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunMixDeadlineMidMix: a deadline passing while the cores are
// interleaving (per-core traces far too long to finish) stops the mix
// at the next poll, i.e. within cpu.CtxCheckInterval steps, with an
// error wrapping context.DeadlineExceeded; a wall-clock deadline stops
// it promptly too.
func TestRunMixDeadlineMidMix(t *testing.T) {
	mix := workload.Mixes()[0]
	cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	const endless = 1 << 40

	ctx := &expiringCtx{Context: context.Background(), expireAt: 3}
	_, err := RunMix(ctx, mix, cfg, vm.ScenarioNormal, 3, endless)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if ctx.polls != ctx.expireAt {
		t.Errorf("ctx polled %d times, want %d: the mix kept stepping past the expired poll", ctx.polls, ctx.expireAt)
	}

	tctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RunMix(tctx, mix, cfg, vm.ScenarioNormal, 3, endless)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("mix returned %v after starting with a 50ms deadline", took)
	}
}

func TestRunAppScenarios(t *testing.T) {
	prof := smallProf(t, "gcc", 2)
	for _, sc := range vm.Scenarios() {
		cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
		if sc == vm.ScenarioNoContig {
			cfg.NoContig = true
		}
		st, err := RunApp(context.Background(), prof, cfg, sc, 5, 10_000)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if st.Core.Instructions == 0 {
			t.Errorf("%v: empty run", sc)
		}
	}
}
