package sim

import (
	"context"
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// TestCheckInvariantsCatchesEachIdentity breaks one counter per
// accounting identity in a real run's stats and expects CheckInvariants
// to name that identity. The three-level rows start from an OOO run,
// the two-level row from an in-order one (no private L2).
func TestCheckInvariantsCatchesEachIdentity(t *testing.T) {
	run := func(c cpu.Config) Stats {
		t.Helper()
		st, err := RunApp(context.Background(), smallProf(t, "mcf", 4), SIPT(c, 32, 2, core.ModeCombined),
			vm.ScenarioNormal, 1, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		if st.Path.DRAMReads == 0 || st.L2.Misses == 0 && !c.InOrder {
			t.Fatalf("run too small to exercise the miss path: %+v", st.Path)
		}
		return st
	}
	ooo, ino := run(cpu.OOO()), run(cpu.InOrder())

	cases := []struct {
		name    string
		base    Stats
		corrupt func(*Stats)
		want    string
	}{
		{"core loads", ooo, func(s *Stats) { s.Core.Loads++ }, "L1 accesses"},
		{"TLB lookups", ooo, func(s *Stats) { s.TLB.Lookups++ }, "TLB lookups"},
		{"TLB walks", ooo, func(s *Stats) { s.TLB.Walks++ }, "TLB lookups"},
		{"TLB L2 hits", ino, func(s *Stats) { s.TLB.L2Hits++ }, "TLB lookups"},
		{"L1 array misses", ooo, func(s *Stats) { s.L1C.Misses++ }, "L1 fills"},
		{"L1 fills", ooo, func(s *Stats) { s.L1C.Fills-- }, "L1 fills"},
		{"L2 path accesses", ooo, func(s *Stats) { s.Path.L2Accesses++ }, "L2 path accesses"},
		{"L2 accesses", ooo, func(s *Stats) { s.L2.Accesses-- }, "L2 path accesses"},
		{"L2 misses", ooo, func(s *Stats) { s.L2.Misses++ }, "L2 misses"},
		{"LLC accesses, no L2", ino, func(s *Stats) { s.Path.LLCAccesses++ }, "(no L2)"},
		{"DRAM reads", ooo, func(s *Stats) { s.Path.DRAMReads = s.Path.LLCAccesses + 1 }, "DRAM reads"},
		{"DRAM reads, no L2", ino, func(s *Stats) { s.Path.DRAMReads = s.Path.LLCAccesses + 1 }, "DRAM reads"},
	}
	for _, base := range []Stats{ooo, ino} {
		if err := base.CheckInvariants(); err != nil {
			t.Fatalf("%s: unbroken run fails: %v", base.Config.Label(), err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.base
			tc.corrupt(&st)
			err := st.CheckInvariants()
			if err == nil {
				t.Fatal("corrupted stats pass CheckInvariants")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the %q identity", err, tc.want)
			}
		})
	}
}

// TestMixCoresHoldHierarchyIdentities asserts that every core of a
// mix satisfies the hierarchy identities even though a core that
// finished early fails the L1-versus-Core check: its Core is the
// first-pass snapshot, while its hierarchy kept counting recycled
// passes. That is why RunMixConfigs checks checkHierarchy, not
// CheckInvariants.
func TestMixCoresHoldHierarchyIdentities(t *testing.T) {
	mix := workload.Mix{Name: "t", Apps: [4]string{"libquantum", "mcf", "ycsb", "calculix"}}
	var profs [4]workload.Profile
	for i, name := range mix.Apps {
		profs[i] = smallProf(t, name, 2)
	}
	cfgs := []Config{Baseline(cpu.OOO()), SIPT(cpu.InOrder(), 32, 2, core.ModeCombined)}
	out, err := runMixConfigs(context.Background(), mix, profs, cfgs, vm.ScenarioNormal, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range out {
		recycled := false
		for i, st := range ms.PerCore {
			if err := st.checkHierarchy(); err != nil {
				t.Fatalf("%s core %d: %v", ms.Config.Label(), i, err)
			}
			if ms.Consumed[i] > st.Core.Loads+st.Core.Stores && st.CheckInvariants() != nil {
				recycled = true
			}
		}
		if !recycled {
			t.Fatalf("%s: no core recycled its trace; the test does not exercise the snapshot skew", ms.Config.Label())
		}
	}
}
