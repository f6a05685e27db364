package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sipt/internal/cache"
	"sipt/internal/memaddr"
)

// cfg returns a SIPT config for the given geometry and mode.
func cfg(sizeKiB, ways, lat int, mode Mode) Config {
	return Config{
		Cache: cache.Config{
			Name:          "L1",
			SizeBytes:     uint64(sizeKiB) << 10,
			Ways:          ways,
			LineBytes:     64,
			LatencyCycles: lat,
		},
		Mode:       mode,
		TLBLatency: 2,
	}
}

// pair builds a VA/PA pair whose k low index bits beyond the page
// offset either match or differ.
func pair(unchanged bool) (memaddr.VAddr, memaddr.PAddr) {
	va := memaddr.VAddr(0x7f0000000000 | 0x5<<memaddr.PageShift)
	pa := memaddr.PAddr(0x10000000 | 0x5<<memaddr.PageShift)
	if !unchanged {
		pa ^= 1 << memaddr.PageShift // flip bit 12
	}
	return va, pa
}

func TestVIPTFeasibleGeometryAlwaysFast(t *testing.T) {
	// 32K 8-way: 0 spec bits; every mode is effectively VIPT.
	for _, m := range []Mode{ModeVIPT, ModeIdeal, ModeNaive, ModeBypass, ModeCombined} {
		l := New(cfg(32, 8, 4, m))
		if l.SpecBits() != 0 {
			t.Fatalf("specBits = %d, want 0", l.SpecBits())
		}
		va, pa := pair(false)
		r := l.Access(0x400000, va, pa, false)
		if !r.Fast || r.Latency != 4 || r.ArraySlots != 1 {
			t.Errorf("mode %v: %+v, want fast 4-cycle single access", m, r)
		}
	}
}

func TestNaiveFastWhenUnchanged(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeNaive)) // 2 spec bits
	va, pa := pair(true)
	r := l.Access(0x400000, va, pa, false)
	if !r.Fast || r.Latency != 2 || r.ArraySlots != 1 || r.Extra {
		t.Errorf("unchanged bits: %+v", r)
	}
}

func TestNaiveSlowWhenChanged(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeNaive))
	va, pa := pair(false)
	r := l.Access(0x400000, va, pa, false)
	if r.Fast || !r.Extra || r.ArraySlots != 2 {
		t.Errorf("changed bits: %+v", r)
	}
	if r.Latency != 2+2 { // TLB + re-access
		t.Errorf("slow latency = %d, want 4", r.Latency)
	}
	st := l.Stats()
	if st.Slow != 1 || st.Extra != 1 || st.ArrayAccesses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdealAlwaysFastRegardlessOfBits(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeIdeal))
	for i := 0; i < 10; i++ {
		va, pa := pair(i%2 == 0)
		r := l.Access(0x400000, va, pa, false)
		if !r.Fast || r.Latency != 2 || r.ArraySlots != 1 {
			t.Fatalf("ideal access %d: %+v", i, r)
		}
	}
}

func TestVIPTInfeasibleGeometryActsAsPIPT(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeVIPT))
	va, pa := pair(true)
	r := l.Access(0x400000, va, pa, false)
	if !r.Bypassed || r.Latency != 4 || r.ArraySlots != 1 {
		t.Errorf("PIPT fallback: %+v", r)
	}
}

func TestBypassLearnsToAvoidExtraAccesses(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeBypass))
	pc := uint64(0x400100)
	// A PC whose bits always change: after warmup the predictor must
	// bypass, so no extra accesses accrue.
	va, pa := pair(false)
	for i := 0; i < 200; i++ {
		l.Access(pc, va, pa, false)
	}
	st := l.Stats()
	late := New(cfg(32, 2, 2, ModeBypass))
	_ = late
	if st.Extra > 50 {
		t.Errorf("extra accesses = %d of 200; predictor failed to learn", st.Extra)
	}
	if st.Bypassed == 0 {
		t.Error("no bypassed accesses despite always-changed bits")
	}
}

func TestBypassDoesNotSquanderGoodSpeculation(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeBypass))
	va, pa := pair(true)
	for i := 0; i < 200; i++ {
		l.Access(0x400200, va, pa, false)
	}
	st := l.Stats()
	if st.Fast < 190 {
		t.Errorf("fast = %d of 200; opportunity loss too high", st.Fast)
	}
}

func TestCombinedRecoversChangedBitsViaReversed1Bit(t *testing.T) {
	// 32K 4-way: 1 spec bit. A PC whose bit always flips: combined mode
	// must converge to fast accesses via reversed prediction.
	l := New(cfg(32, 4, 3, ModeCombined))
	if l.SpecBits() != 1 {
		t.Fatalf("specBits = %d, want 1", l.SpecBits())
	}
	va, pa := pair(false) // bit 12 differs
	for i := 0; i < 300; i++ {
		l.Access(0x400300, va, pa, false)
	}
	st := l.Stats()
	if st.FastIDB == 0 {
		t.Error("reversed prediction never produced a fast access")
	}
	if st.Fast < 250 {
		t.Errorf("fast = %d of 300 with a perfectly-flipping bit", st.Fast)
	}
}

func TestCombinedRecoversStableDeltaViaIDB(t *testing.T) {
	// 32K 2-way: 2 spec bits. Addresses walk a region with constant
	// delta 0b10: naive always misses, IDB learns the delta.
	l := New(cfg(32, 2, 2, ModeCombined))
	if l.SpecBits() != 2 {
		t.Fatalf("specBits = %d, want 2", l.SpecBits())
	}
	const delta = 0x2
	for i := 0; i < 400; i++ {
		vpn := uint64(0x7f000_0000 + i/8) // several accesses per page
		va := memaddr.VPN(vpn).Addr(uint64(i%8) * 64)
		pa := memaddr.PFN(vpn + delta).Addr(uint64(i%8) * 64)
		l.Access(0x400400, va, pa, false)
	}
	st := l.Stats()
	if st.FastIDB < 300 {
		t.Errorf("IDB fast accesses = %d of 400; delta not learned", st.FastIDB)
	}
	if got := l.IDBStats().HitRate(); got < 0.9 {
		t.Errorf("IDB hit rate = %.2f, want >= 0.9", got)
	}
}

func TestCombinedFastWhenBitsUnchanged(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeCombined))
	va, pa := pair(true)
	for i := 0; i < 100; i++ {
		l.Access(0x400500, va, pa, false)
	}
	st := l.Stats()
	if st.FastSpec < 90 {
		t.Errorf("FastSpec = %d of 100", st.FastSpec)
	}
}

func TestHitMissFollowsPhysicalContents(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeNaive))
	va, pa := pair(false) // misspeculation
	r := l.Access(0x400000, va, pa, false)
	if r.Hit {
		t.Fatal("hit on cold cache")
	}
	l.Fill(pa, false)
	r = l.Access(0x400000, va, pa, false)
	if !r.Hit {
		t.Fatal("miss after fill: speculation must not affect contents")
	}
}

// TestSpeculationNeverAffectsContents is the paper's correctness
// property: for any access stream, the hit/miss sequence of a SIPT
// cache equals that of an identical PIPT cache.
func TestSpeculationNeverAffectsContents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sipt := New(cfg(32, 2, 2, ModeCombined))
		pipt := cache.New(cfg(32, 2, 2, ModeVIPT).Cache)
		for i := 0; i < 2000; i++ {
			vpn := uint64(rng.Intn(256))
			pfn := uint64(rng.Intn(256)) // arbitrary, even inconsistent, mapping
			off := uint64(rng.Intn(64)) * 64
			va := memaddr.VPN(vpn).Addr(off)
			pa := memaddr.PFN(pfn).Addr(off)
			store := rng.Intn(4) == 0
			r := sipt.Access(uint64(0x400000+rng.Intn(64)*4), va, pa, store)
			pr := pipt.Access(pa, store)
			if r.Hit != pr.Hit {
				return false
			}
			if !r.Hit {
				sipt.Fill(pa, store)
				pipt.Fill(pa, store)
			}
		}
		return sipt.Stats().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestStatsInvariantsAcrossModes drives random traffic through every
// mode and validates the accounting identities.
func TestStatsInvariantsAcrossModes(t *testing.T) {
	for _, m := range []Mode{ModeVIPT, ModeIdeal, ModeNaive, ModeBypass, ModeCombined} {
		for _, geom := range [][3]int{{32, 8, 4}, {32, 4, 3}, {32, 2, 2}, {128, 4, 4}} {
			rng := rand.New(rand.NewSource(77))
			l := New(cfg(geom[0], geom[1], geom[2], m))
			for i := 0; i < 3000; i++ {
				vpn := uint64(rng.Intn(512))
				pfn := uint64(rng.Intn(512))
				va := memaddr.VPN(vpn).Addr(uint64(rng.Intn(4096)))
				pa := memaddr.PFN(pfn).Addr(va.Offset())
				r := l.Access(uint64(0x400000+rng.Intn(32)*4), va, pa, rng.Intn(3) == 0)
				if !r.Hit {
					l.Fill(pa, false)
				}
			}
			if err := l.Stats().CheckInvariants(); err != nil {
				t.Errorf("mode %v geom %v: %v", m, geom, err)
			}
		}
	}
}

func TestWayPredictionMRU(t *testing.T) {
	c := cfg(32, 2, 2, ModeIdeal)
	c.WayPrediction = true
	l := New(c)
	va, pa := pair(true)
	l.Fill(pa, false)
	r := l.Access(0x400000, va, pa, false)
	if !r.WayPredicted || !r.WayHit {
		t.Errorf("first re-access should be an MRU way hit: %+v", r)
	}
	if r.Latency != 2 {
		t.Errorf("way hit latency = %d, want 2", r.Latency)
	}
	// Install a conflicting line in the same set to move MRU away.
	pa2 := pa + memaddr.PAddr(16<<10) // way size stride -> same set
	l.Fill(pa2, false)
	l.Access(0x400000, va+memaddr.VAddr(16<<10), pa2, false) // MRU now pa2
	r = l.Access(0x400000, va, pa, false)
	if r.WayHit {
		t.Error("expected way misprediction after MRU moved")
	}
	if r.Latency != 4 { // second sequential pass
		t.Errorf("way miss latency = %d, want 4", r.Latency)
	}
	st := l.Stats()
	if st.WayProbes != 3 || st.WayHits != 2 {
		t.Errorf("way stats = %+v", st)
	}
}

// TestWayMispredictionArrayAccounting is the regression test for the
// energy-model undercount: a way-mispredicted hit performs a second
// sequential array pass (Sec. VII-A / Fig. 17), which must show up in
// both the per-access ArraySlots and the aggregate ArrayAccesses, and
// the CheckInvariants identity must account for it.
func TestWayMispredictionArrayAccounting(t *testing.T) {
	c := cfg(32, 2, 2, ModeIdeal)
	c.WayPrediction = true
	l := New(c)
	va, pa := pair(true)
	l.Fill(pa, false)
	l.Access(0x400000, va, pa, false) // MRU hit: one array pass

	// Conflicting line in the same set steals the MRU way.
	pa2 := pa + memaddr.PAddr(16<<10)
	l.Fill(pa2, false)
	l.Access(0x400000, va+memaddr.VAddr(16<<10), pa2, false)

	r := l.Access(0x400000, va, pa, false)
	if r.WayHit || !r.Hit {
		t.Fatalf("expected a way-mispredicted hit, got %+v", r)
	}
	if r.ArraySlots != 2 {
		t.Errorf("way-mispredicted hit ArraySlots = %d, want 2 (second sequential pass)", r.ArraySlots)
	}
	st := l.Stats()
	wayMiss := st.WayProbes - st.WayHits
	if wayMiss != 1 {
		t.Fatalf("way mispredictions = %d, want 1 (stats %+v)", wayMiss, st)
	}
	if st.ArrayAccesses != st.Accesses+st.Extra+wayMiss {
		t.Errorf("ArrayAccesses = %d, want accesses %d + extra %d + way mispredictions %d",
			st.ArrayAccesses, st.Accesses, st.Extra, wayMiss)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestWayAccuracyImprovesWithLowerAssociativity(t *testing.T) {
	// Sec. VII-A: reducing associativity raises way-prediction accuracy.
	run := func(ways int) float64 {
		c := cfg(32, ways, 3, ModeIdeal)
		c.WayPrediction = true
		l := New(c)
		rng := rand.New(rand.NewSource(3))
		// Working set of 2x ways lines per set in a few sets: contention.
		for i := 0; i < 20000; i++ {
			setStride := uint64(32<<10) / uint64(ways)
			line := uint64(rng.Intn(ways * 2))
			pa := memaddr.PAddr(line * setStride)
			va := memaddr.VAddr(pa)
			r := l.Access(0x400000, va, pa, false)
			if !r.Hit {
				l.Fill(pa, false)
			}
		}
		return l.Stats().WayAccuracy()
	}
	if a2, a8 := run(2), run(8); a2 <= a8 {
		t.Errorf("way accuracy 2-way (%.3f) should exceed 8-way (%.3f)", a2, a8)
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeVIPT: "vipt", ModeIdeal: "ideal", ModeNaive: "naive",
		ModeBypass: "bypass", ModeCombined: "combined", Mode(99): "unknown",
	}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), w)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(32, 2, 2, ModeNaive)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.TLBLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative TLB latency accepted")
	}
	bad = good
	bad.Mode = Mode(42)
	if err := bad.Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = good
	bad.Cache.Ways = 3
	if err := bad.Validate(); err == nil {
		t.Error("bad cache geometry accepted")
	}
}

func TestNoContigModeDegradesIDBAcrossPages(t *testing.T) {
	// With zero >4KiB contiguity, an IDB entry visiting a new page each
	// access must mispredict most of the time even with a stable delta.
	mk := func(noContig bool) float64 {
		c := cfg(32, 2, 2, ModeCombined)
		c.NoContig = noContig
		c.Seed = 21
		l := New(c)
		const delta = 0x3
		for i := 0; i < 2000; i++ {
			vpn := uint64(0x7f000_0000 + i) // new page every access
			va := memaddr.VPN(vpn).Addr(0)
			pa := memaddr.PFN(vpn + delta).Addr(0)
			l.Access(0x400700, va, pa, false)
		}
		return l.Stats().FastFraction()
	}
	with, without := mk(true), mk(false)
	if with >= without {
		t.Errorf("no-contig fast fraction %.2f should be below contiguous %.2f", with, without)
	}
}

func TestCombinedOneBitHasNoIDB(t *testing.T) {
	// With a single speculative bit the combined design uses reversed
	// prediction instead of an IDB (Sec. VI): no IDB stats may accrue.
	l := New(cfg(32, 4, 3, ModeCombined)) // 1 spec bit
	va, pa := pair(false)
	for i := 0; i < 50; i++ {
		l.Access(0x400000, va, pa, false)
	}
	if st := l.IDBStats(); st.Lookups != 0 {
		t.Errorf("1-bit combined mode used an IDB: %+v", st)
	}
}

func TestBypassStatsZeroWithoutPredictor(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeNaive))
	va, pa := pair(true)
	l.Access(0x400000, va, pa, false)
	if st := l.BypassStats(); st.Predictions != 0 {
		t.Errorf("naive mode accrued perceptron stats: %+v", st)
	}
}

func TestSlowLatencyExceedsFast(t *testing.T) {
	l := New(cfg(32, 2, 2, ModeNaive))
	vaU, paU := pair(true)
	vaC, paC := pair(false)
	fast := l.Access(0x400000, vaU, paU, false)
	slow := l.Access(0x400000, vaC, paC, false)
	if slow.Latency <= fast.Latency {
		t.Errorf("slow access latency %d not above fast %d", slow.Latency, fast.Latency)
	}
}
