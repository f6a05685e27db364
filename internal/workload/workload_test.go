package workload

import (
	"errors"
	"io"
	"testing"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// smallSystem returns a modest physical memory big enough for any
// test profile.
func smallSystem(t *testing.T, sc vm.Scenario) *vm.System {
	t.Helper()
	return vm.NewSystem(sc, 96<<20/memaddr.PageBytes, 80<<20/memaddr.PageBytes, 1)
}

// scaled returns a copy of the named profile with its footprint shrunk
// so tests stay fast.
func scaled(t *testing.T, name string, mib float64) Profile {
	t.Helper()
	p := MustLookup(name)
	p.FootprintMiB = mib
	return p
}

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range AllApps() {
		p := MustLookup(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nonesuch"); err == nil {
		t.Error("Lookup of unknown profile succeeded")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup did not panic")
		}
	}()
	MustLookup("nonesuch")
}

func TestFigureAppsCount(t *testing.T) {
	if got := len(FigureApps()); got != 26 {
		t.Errorf("FigureApps = %d entries, want 26", got)
	}
	if got := len(AllApps()); got != 33 {
		t.Errorf("AllApps = %d entries, want 33", got)
	}
}

func TestMixesMatchTable3(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 11 {
		t.Fatalf("Mixes = %d, want 11", len(mixes))
	}
	// Spot-check rows from Tab. III.
	if mixes[0].Apps != [4]string{"h264ref", "hmmer", "perlbench", "povray"} {
		t.Errorf("mix0 = %v", mixes[0].Apps)
	}
	if mixes[8].Apps != [4]string{"graph500", "ycsb", "mcf", "povray"} {
		t.Errorf("mix8 = %v", mixes[8].Apps)
	}
	// Every app in a mix must have a profile, and every profile must be
	// used at least once across single-core apps + mixes (paper: "every
	// application is used at least once").
	used := make(map[string]bool)
	for _, a := range FigureApps() {
		used[a] = true
	}
	for _, m := range mixes {
		for _, a := range m.Apps {
			if _, err := Lookup(a); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
			used[a] = true
		}
	}
	for _, a := range AllApps() {
		if !used[a] {
			t.Errorf("profile %s unused by any figure or mix", a)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustLookup("gcc")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.FootprintMiB = 0 },
		func(p *Profile) { p.BigRegionFrac = 1.5 },
		func(p *Profile) { p.BigColdFrac = -0.1 },
		func(p *Profile) { p.HotKiB = 0 },
		func(p *Profile) { p.HotFrac = 2 },
		func(p *Profile) { p.SeqFrac = -1 },
		func(p *Profile) { p.MemRatio = 0 },
		func(p *Profile) { p.StoreRatio = 1.2 },
		func(p *Profile) { p.ChaseFrac = -0.5 },
		func(p *Profile) { p.Streams = 0 },
		func(p *Profile) { p.SmallChunkPages = [2]int{0, 0} },
		func(p *Profile) { p.SmallChunkPages = [2]int{8, 2} },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

func TestGeneratorProducesRecords(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioNormal)
	g, err := NewGenerator(scaled(t, "h264ref", 2), sys, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5000 {
		t.Fatalf("got %d records, want 5000", len(recs))
	}
	if err := g.NextInto(&trace.Record{}); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after limit, got %v", err)
	}
	var loads, stores, zeroPC int
	for _, r := range recs {
		if r.IsStore() {
			stores++
		} else {
			loads++
			if r.DepDist == 0 {
				t.Fatal("load with zero DepDist")
			}
		}
		if r.PC == 0 {
			zeroPC++
		}
		if r.VA == 0 {
			t.Fatal("zero VA generated")
		}
	}
	if stores == 0 || loads == 0 {
		t.Errorf("degenerate mix: %d loads, %d stores", loads, stores)
	}
	if zeroPC != 0 {
		t.Errorf("%d records with zero PC", zeroPC)
	}
}

func TestGeneratorTranslationConsistent(t *testing.T) {
	// Every record's PA must agree with the address space mapping, and
	// the huge flag must match the page backing.
	sys := smallSystem(t, vm.ScenarioNormal)
	g, err := NewGenerator(scaled(t, "libquantum", 4), sys, 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	for {
		err := g.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pa, huge, ok := g.Space().Lookup(rec.VA)
		if !ok {
			t.Fatalf("VA %#x not mapped", uint64(rec.VA))
		}
		if pa != rec.PA {
			t.Fatalf("PA mismatch for VA %#x: record %#x, space %#x",
				uint64(rec.VA), uint64(rec.PA), uint64(pa))
		}
		if huge != rec.Huge() {
			t.Fatalf("huge flag mismatch for VA %#x", uint64(rec.VA))
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() []trace.Record {
		sys := vm.NewSystem(vm.ScenarioNormal, 96<<20/memaddr.PageBytes, 0, 5)
		g, err := NewGenerator(scaled(t, "gcc", 2), sys, 9, 2000)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Collect(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorTHPCoverage(t *testing.T) {
	// Huge-page streamers must be hugepage-dominated under THP, and the
	// seven bad apps must have (near-)zero huge coverage.
	sys := smallSystem(t, vm.ScenarioNormal)
	check := func(name string, mib float64, wantMin, wantMax float64) {
		t.Helper()
		g, err := NewGenerator(scaled(t, name, mib), sys, 11, 4000)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Collect(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var huge int
		for _, r := range recs {
			if r.Huge() {
				huge++
			}
		}
		frac := float64(huge) / float64(len(recs))
		if frac < wantMin || frac > wantMax {
			t.Errorf("%s: huge fraction %.2f outside [%.2f, %.2f]", name, frac, wantMin, wantMax)
		}
		g.teardown()
	}
	check("libquantum", 16, 0.85, 1.0)
	check("calculix", 4, 0, 0.05)
	check("gromacs", 4, 0, 0.05)
}

func TestGeneratorTHPOffNoHugePages(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioTHPOff)
	g, err := NewGenerator(scaled(t, "libquantum", 8), sys, 13, 2000)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Huge() {
			t.Fatal("huge page under THP-off scenario")
		}
	}
}

func TestGeneratorHotSetLocality(t *testing.T) {
	// A high-HotFrac app must concentrate accesses on a small number of
	// distinct lines relative to a cold-heavy app.
	sys := smallSystem(t, vm.ScenarioNormal)
	distinct := func(name string, mib float64) int {
		t.Helper()
		g, err := NewGenerator(scaled(t, name, mib), sys, 17, 24000)
		if err != nil {
			t.Fatal(err)
		}
		lines := make(map[memaddr.VAddr]bool)
		var rec trace.Record
		for {
			err := g.NextInto(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			lines[rec.VA.Line()] = true
		}
		g.teardown()
		return len(lines)
	}
	hotApp := distinct("exchange2_17", 2)
	coldApp := distinct("GemsFDTD", 16)
	if float64(hotApp)*1.3 >= float64(coldApp) {
		t.Errorf("locality inversion: exchange2_17 touches %d lines, GemsFDTD %d", hotApp, coldApp)
	}
}

func TestGeneratorChurnChangesMappings(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioNormal)
	p := scaled(t, "ycsb", 4)
	p.ChurnEvery = 500
	g, err := NewGenerator(p, sys, 19, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Record per-page PAs early and late; churn must remap some pages.
	early := make(map[memaddr.VPN]memaddr.PFN)
	var i int
	var rec trace.Record
	for {
		err := g.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
		if i <= 2000 {
			early[rec.VA.PageNum()] = rec.PA.PageNum()
		}
	}
	var remapped int
	for vpn, pfn := range early {
		if pa, _, ok := g.Space().Lookup(vpn.Addr(0)); ok && pa.PageNum() != pfn {
			remapped++
		}
	}
	// Churn unmaps chunks entirely or remaps them; either way some early
	// pages must no longer map to the same frame.
	var gone int
	for vpn := range early {
		if _, _, ok := g.Space().Lookup(vpn.Addr(0)); !ok {
			gone++
		}
	}
	if remapped+gone == 0 {
		t.Error("churn had no effect on mappings")
	}
}

func TestGeneratorResetProducesFreshPass(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioNormal)
	g, err := NewGenerator(scaled(t, "povray", 2), sys, 23, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	b, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("pass lengths differ: %d vs %d", len(a), len(b))
	}
	// Virtual behaviour identical; physical mapping may differ.
	for i := range a {
		if a[i].PC != b[i].PC || a[i].Gap != b[i].Gap || a[i].VA != b[i].VA {
			t.Fatalf("virtual stream differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorFragmentedScenario(t *testing.T) {
	sys := vm.NewSystem(vm.ScenarioFragmented, 64<<20/memaddr.PageBytes,
		FramesNeeded(scaled(t, "libquantum", 8)), 31)
	g, err := NewGenerator(scaled(t, "libquantum", 8), sys, 37, 2000)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge int
	for _, r := range recs {
		if r.Huge() {
			huge++
		}
	}
	// Fragmentation must suppress (nearly) all huge pages.
	if frac := float64(huge) / float64(len(recs)); frac > 0.10 {
		t.Errorf("fragmented scenario still %.0f%% huge", frac*100)
	}
}

func TestFramesNeeded(t *testing.T) {
	p := scaled(t, "mcf", 16)
	if got := FramesNeeded(p); got < 16<<20/memaddr.PageBytes {
		t.Errorf("FramesNeeded = %d, below raw footprint", got)
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioNormal)
	p := MustLookup("gcc")
	p.MemRatio = 0
	if _, err := NewGenerator(p, sys, 1, 10); err == nil {
		t.Error("invalid profile accepted")
	}
}
