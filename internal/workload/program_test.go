package workload

import (
	"errors"
	"io"
	"sort"
	"testing"
	"unsafe"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// programLimit is the per-pass record limit the program tests use.
const programLimit = 150

// tab3Apps lists the distinct apps of the Tab. III mixes, sorted.
func tab3Apps() []string {
	seen := make(map[string]bool)
	var apps []string
	for _, m := range Mixes() {
		for _, a := range m.Apps {
			if !seen[a] {
				seen[a] = true
				apps = append(apps, a)
			}
		}
	}
	sort.Strings(apps)
	return apps
}

// programProfile shrinks a Tab. III app for the program tests: a small
// footprint, and a churn period short enough to remap several times per
// pass when the app churns at all.
func programProfile(name string) Profile {
	p := MustLookup(name)
	if p.FootprintMiB > 3 {
		p.FootprintMiB = 3
	}
	if p.ChurnEvery > 0 {
		p.ChurnEvery = 37
	}
	return p
}

// programSystem is the physical memory each twin runs on: room for two
// shrunk profiles, prepared identically for a given scenario.
func programSystem(sc vm.Scenario) *vm.System {
	return vm.NewSystem(sc, 16<<20/memaddr.PageBytes, 8<<20/memaddr.PageBytes, 1)
}

// recordProgram drains a Record generator on a scratch system and
// returns its program.
func recordProgram(t *testing.T, p Profile, seed int64, limit uint64) *Program {
	t.Helper()
	g, err := Record(p, programSystem(vm.ScenarioNormal), seed, limit)
	if err != nil {
		t.Fatal(err)
	}
	if g.Program() != nil {
		t.Fatal("Program() before the pass completed")
	}
	if _, err := trace.Collect(g, 0); err != nil {
		t.Fatal(err)
	}
	prog := g.Program()
	if prog == nil {
		t.Fatal("no program after a complete pass")
	}
	return prog
}

// FuzzProgramMatchesLive holds a replayed program to the drawing
// generator it was recorded from. Two twin systems each run two
// generators through the same schedule of interleaved NextInto and
// Reset calls; one system draws live, the other replays programs
// recorded (on a third system) from the same (profile, seed, limit).
// After every step the records must agree field for field and the two
// buddies must hold the same number of free frames.
func FuzzProgramMatchesLive(f *testing.F) {
	apps := tab3Apps()
	for i := range apps {
		sched := make([]byte, 0, 2*programLimit+20)
		for s := 0; s < cap(sched); s++ {
			b := byte(s*7+i) | 1
			if s%(programLimit/2+i) == programLimit/3 {
				b = 0 // a Reset, sometimes mid-pass
			}
			sched = append(sched, b)
		}
		f.Add(uint8(i), uint8(i*5+3), uint8(i), int64(i), sched)
	}
	f.Fuzz(checkProgramMatchesLive)
}

// checkProgramMatchesLive is FuzzProgramMatchesLive's property.
func checkProgramMatchesLive(t *testing.T, appA, appB, scByte uint8, seed int64, sched []byte) {
	apps := tab3Apps()
	{
		if len(sched) > 3*programLimit {
			sched = sched[:3*programLimit]
		}
		profs := [2]Profile{programProfile(apps[int(appA)%len(apps)]), programProfile(apps[int(appB)%len(apps)])}
		seeds := [2]int64{seed, seed + 1}
		sc := vm.Scenarios()[int(scByte)%len(vm.Scenarios())]

		liveSys, replaySys := programSystem(sc), programSystem(sc)
		var live, replay [2]*Generator
		for i := range live {
			prog := recordProgram(t, profs[i], seeds[i], programLimit)
			var err error
			if live[i], err = NewGenerator(profs[i], liveSys, seeds[i], programLimit); err != nil {
				t.Fatal(err)
			}
			if replay[i], err = prog.Replay(replaySys); err != nil {
				t.Fatal(err)
			}
		}
		if l, r := liveSys.Phys.FreeFrames(), replaySys.Phys.FreeFrames(); l != r {
			t.Fatalf("after setup: %d free frames live, %d replayed", l, r)
		}
		var lrec, rrec trace.Record
		for step, b := range sched {
			i := int(b>>1) & 1
			if b&1 == 0 {
				live[i].Reset()
				replay[i].Reset()
			} else {
				lerr := live[i].NextInto(&lrec)
				rerr := replay[i].NextInto(&rrec)
				if (lerr == nil) != (rerr == nil) || (lerr != nil && !(errors.Is(lerr, io.EOF) && errors.Is(rerr, io.EOF))) {
					t.Fatalf("step %d gen %d: live err %v, replay err %v", step, i, lerr, rerr)
				}
				if lerr == nil && lrec != rrec {
					t.Fatalf("step %d gen %d (%s): live %+v, replay %+v", step, i, profs[i].Name, lrec, rrec)
				}
			}
			if l, r := liveSys.Phys.FreeFrames(), replaySys.Phys.FreeFrames(); l != r {
				t.Fatalf("step %d: %d free frames live, %d replayed", step, l, r)
			}
		}
	}
}

// TestRecordedGeneratorReplaysItsPass: a Record generator yields the
// same records as NewGenerator, and after Reset replays the program it
// recorded, matching a drawing generator's second pass on a twin
// system.
func TestRecordedGeneratorReplaysItsPass(t *testing.T) {
	p := programProfile("ycsb")
	rsys, lsys := programSystem(vm.ScenarioNormal), programSystem(vm.ScenarioNormal)
	rg, err := Record(p, rsys, 3, programLimit)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewGenerator(p, lsys, 3, programLimit)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		a, err := trace.Collect(rg, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := trace.Collect(lg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != programLimit || len(b) != programLimit {
			t.Fatalf("pass %d: %d and %d records, want %d", pass, len(a), len(b), programLimit)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pass %d record %d: recorded/replayed %+v, drawn %+v", pass, i, a[i], b[i])
			}
		}
		if pass > 0 && !rg.replay {
			t.Fatalf("pass %d drew instead of replaying", pass)
		}
		rg.Reset()
		lg.Reset()
	}
	if len(rg.Program().remaps) == 0 {
		t.Error("no churn remap recorded; the test wants a churning profile")
	}
}

// TestRecordCutShortDropsProgram: a Reset before the first pass
// completes leaves no program, and the generator draws from then on.
func TestRecordCutShortDropsProgram(t *testing.T) {
	g, err := Record(programProfile("gcc"), programSystem(vm.ScenarioNormal), 5, programLimit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Collect(g, programLimit/2); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	if g.Program() != nil || g.replay {
		t.Fatal("a pass cut short left a program")
	}
	if recs, err := trace.Collect(g, 0); err != nil || len(recs) != programLimit {
		t.Fatalf("drawing after a cut-short recording: %d records, err %v", len(recs), err)
	}
	if _, err := Record(programProfile("gcc"), programSystem(vm.ScenarioNormal), 5, 0); err == nil {
		t.Error("Record accepted an unbounded limit")
	}
}

// TestReplayChecksMmapBases: a program whose recorded bases disagree
// with what the fresh address space hands out is refused at setup.
func TestReplayChecksMmapBases(t *testing.T) {
	prog := recordProgram(t, programProfile("povray"), 9, programLimit)
	bad := *prog
	bad.chunks = append([]chunk(nil), prog.chunks...)
	bad.chunks[len(bad.chunks)-1].base += memaddr.PageBytes
	if _, err := bad.Replay(programSystem(vm.ScenarioNormal)); err == nil {
		t.Fatal("replay accepted a program with a wrong Mmap base")
	}
}

// TestReplayNextIntoAllocs: the replayed per-record path allocates
// nothing once its pages are mapped.
func TestReplayNextIntoAllocs(t *testing.T) {
	// libquantum pre-touches every chunk and does not churn, so no
	// record faults a page.
	p := programProfile("libquantum")
	prog := recordProgram(t, p, 1, 4000)
	g, err := prog.Replay(programSystem(vm.ScenarioNormal))
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	allocs := testing.AllocsPerRun(2000, func() {
		if err := g.NextInto(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("replayed NextInto: %v allocs per record, want 0", allocs)
	}
}

// TestPackedRecordSize: a recorded record costs 6 bytes.
func TestPackedRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(packedRec{}); n != 6 {
		t.Errorf("packedRec is %d bytes, want 6", n)
	}
}

// TestEveryProfileFitsPacking: every profile, at its full footprint,
// records a whole pass — no record falls outside the packing, so no mix
// core silently falls back to drawing every pass.
func TestEveryProfileFitsPacking(t *testing.T) {
	for _, name := range AllApps() {
		p := MustLookup(name)
		sys := vm.NewSystem(vm.ScenarioNormal, 2*FramesNeeded(p)+16384, FramesNeeded(p), 1)
		g, err := Record(p, sys, 1, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Collect(g, 0); err != nil {
			t.Fatal(err)
		}
		if g.Program() == nil {
			t.Errorf("%s: recording abandoned", name)
		}
		// Beyond the sampled records: every stream and every mapped byte
		// is addressable by the packing.
		last := g.chunks[len(g.chunks)-1]
		if end := uint64(last.base-vm.MmapBase) + last.size; end > 1<<packVABits {
			t.Errorf("%s: mapped VAs span %d MiB, packing holds %d", name, end>>20, 1<<(packVABits-20))
		}
		if n := len(g.streams); n > 1<<packSlotBits {
			t.Errorf("%s: %d streams, packing holds %d", name, n, 1<<packSlotBits)
		}
	}
}

// TestPackedRecordRoundTrip: records at the edges of the packing decode
// to themselves, and records beyond them are refused rather than
// truncated.
func TestPackedRecordRoundTrip(t *testing.T) {
	fits := []trace.Record{
		{PC: basePC, VA: vm.MmapBase},
		{PC: basePC + (1<<packSlotBits-1)*4, VA: vm.MmapBase + 1<<packVABits - 1, Gap: 1<<packGapBits - 1, DepDist: 1<<packDepBits - 1},
		{PC: basePC + 17*4, VA: vm.MmapBase + 0x234_5678, Gap: 3, Flags: trace.FlagStore | trace.FlagHuge},
	}
	p := &Program{limit: uint64(len(fits))}
	for i, rec := range fits {
		if !p.add(&rec) {
			t.Fatalf("record %d %+v refused", i, rec)
		}
	}
	g := &Generator{prog: p, replay: true}
	for i, want := range fits {
		want.Flags &= trace.FlagStore // the huge flag is physical: NextInto maps it
		var got trace.Record
		if err := g.replayInto(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d: decoded %+v, want %+v", i, got, want)
		}
		g.emitted++
	}
	refused := []trace.Record{
		{PC: basePC, VA: vm.MmapBase + 1<<packVABits},
		{PC: basePC, VA: vm.MmapBase - 8},
		{PC: basePC + 1<<packSlotBits*4, VA: vm.MmapBase},
		{PC: basePC, VA: vm.MmapBase, Gap: 1 << packGapBits},
		{PC: basePC + 2, VA: vm.MmapBase},
		{PC: basePC - 4, VA: vm.MmapBase},
		{PC: basePC, VA: vm.MmapBase, DepDist: 1 << packDepBits},
	}
	for i, rec := range refused {
		if p.add(&rec) {
			t.Errorf("record %d %+v packed, want refused", i, rec)
		}
	}
	if len(p.recs) != len(fits) {
		t.Errorf("refused records changed the program: %d records, want %d", len(p.recs), len(fits))
	}
}
