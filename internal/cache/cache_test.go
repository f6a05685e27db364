package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sipt/internal/memaddr"
)

func cfg32K8W() Config {
	return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg32K8W().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Ways: 8, LineBytes: 64},
		{Name: "b", SizeBytes: 30 << 10, Ways: 8, LineBytes: 64},
		{Name: "c", SizeBytes: 32 << 10, Ways: 0, LineBytes: 64},
		{Name: "d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 48},
		{Name: "e", SizeBytes: 32 << 10, Ways: 3, LineBytes: 64},
		{Name: "f", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: -1},
		{Name: "g", SizeBytes: 64, Ways: 64, LineBytes: 1}, // tags would reach bit 63
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", c.Name)
		}
	}
}

// TestNoTagAliasAtBit63 checks that, for every line size Validate
// accepts, a line whose PA has bit 63 set never answers a lookup for
// the same PA with bit 63 clear: the stored tag's valid bit must not
// collide with a real tag bit.
func TestNoTagAliasAtBit63(t *testing.T) {
	for line := uint64(1); line <= 64; line *= 2 {
		cfg := Config{Name: "alias", SizeBytes: 64 * line, Ways: 64, LineBytes: line}
		if cfg.Validate() != nil {
			continue
		}
		c := New(cfg)
		c.Fill(memaddr.PAddr(1<<63|0x40), false)
		if c.Access(memaddr.PAddr(0x40), false).Hit {
			t.Errorf("line %d B: PA 0x40 hits the line filled for 1<<63|0x40", line)
		}
		if c.Probe(memaddr.PAddr(0x40)) {
			t.Errorf("line %d B: Probe(0x40) finds the line filled for 1<<63|0x40", line)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := cfg32K8W()
	if c.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", c.Sets())
	}
	if c.WayBytes() != 4096 {
		t.Errorf("WayBytes = %d, want 4096", c.WayBytes())
	}
}

// TestSpecBits pins the speculative-bit requirement of each paper
// configuration: the core quantity SIPT is about.
func TestSpecBits(t *testing.T) {
	cases := []struct {
		sizeKiB, ways int
		want          uint
	}{
		{32, 8, 0},  // baseline VIPT: way = 4 KiB
		{16, 4, 0},  // VIPT-feasible small cache
		{32, 4, 1},  // way = 8 KiB
		{32, 2, 2},  // way = 16 KiB (the headline config)
		{64, 4, 2},  // way = 16 KiB
		{128, 4, 3}, // way = 32 KiB
	}
	for _, c := range cases {
		cfg := Config{Name: "t", SizeBytes: uint64(c.sizeKiB) << 10, Ways: c.ways, LineBytes: 64}
		if got := cfg.SpecBits(); got != c.want {
			t.Errorf("%dKiB %d-way: SpecBits = %d, want %d", c.sizeKiB, c.ways, got, c.want)
		}
	}
}

func TestAccessMissThenFillHit(t *testing.T) {
	c := New(cfg32K8W())
	pa := memaddr.PAddr(0x1000)
	if r := c.Access(pa, false); r.Hit {
		t.Fatal("hit on empty cache")
	}
	c.Fill(pa, false)
	if r := c.Access(pa, false); !r.Hit {
		t.Fatal("miss after fill")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(cfg32K8W())
	c.Fill(0x1000, false)
	if r := c.Access(0x103f, false); !r.Hit {
		t.Error("same line, different offset should hit")
	}
	if r := c.Access(0x1040, false); r.Hit {
		t.Error("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: fill three conflicting lines; the first (LRU) must go.
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	c := New(cfg)
	stride := cfg.WayBytes() // same set, different tags
	a := memaddr.PAddr(0)
	b := memaddr.PAddr(stride)
	d := memaddr.PAddr(2 * stride)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // make a MRU
	v, evicted := c.Fill(d, false)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if v.PA.Line() != b.Line() {
		t.Errorf("evicted %#x, want %#x (LRU)", v.PA, b)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	c := New(cfg)
	stride := cfg.WayBytes()
	c.Fill(0x0, false)
	c.Access(0x0, true) // dirty it
	c.Fill(memaddr.PAddr(stride), false)
	v, evicted := c.Fill(memaddr.PAddr(3*stride), false) // evicts LRU = 0x0
	if !evicted || !v.Dirty {
		t.Fatalf("expected dirty eviction, got %+v evicted=%v", v, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	c := New(cfg)
	c.Fill(0x0, true) // write-allocate store miss
	c.Fill(memaddr.PAddr(cfg.WayBytes()), false)
	v, evicted := c.Fill(memaddr.PAddr(2*cfg.WayBytes()), false)
	if !evicted || !v.Dirty {
		t.Error("line filled dirty must write back dirty")
	}
}

func TestRefillExistingLine(t *testing.T) {
	c := New(cfg32K8W())
	c.Fill(0x1000, false)
	v, evicted := c.Fill(0x1000, true)
	if evicted {
		t.Errorf("refill evicted %+v", v)
	}
	if c.LineCount() != 1 {
		t.Errorf("LineCount = %d, want 1", c.LineCount())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(cfg32K8W())
	c.Fill(0x1000, false)
	c.Access(0x1000, true)
	dirty, present := c.Invalidate(0x1000)
	if !present || !dirty {
		t.Errorf("Invalidate = dirty %v present %v", dirty, present)
	}
	if c.Probe(0x1000) {
		t.Error("line survived invalidation")
	}
	if _, present := c.Invalidate(0x1000); present {
		t.Error("second invalidation found the line")
	}
}

func TestMRUWayTracking(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	c := New(cfg)
	if c.MRUWay(0) != -1 {
		t.Error("empty set must have no MRU way")
	}
	stride := cfg.WayBytes()
	c.Fill(0x0, false)
	c.Fill(memaddr.PAddr(stride), false)
	r := c.Access(0x0, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if got := c.MRUWay(0); got != r.Way {
		t.Errorf("MRUWay = %d, want %d", got, r.Way)
	}
	// The access to 0x0 was NOT to the pre-access MRU way (stride line
	// was filled later), so MRUHit must be false.
	if r.MRUHit {
		t.Error("MRUHit true for non-MRU access")
	}
	// A repeat access now targets the MRU way.
	if r2 := c.Access(0x0, false); !r2.MRUHit {
		t.Error("repeat access should be an MRU hit")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	c := New(cfg)
	stride := cfg.WayBytes()
	c.Fill(0x0, false)
	c.Fill(memaddr.PAddr(stride), false)
	before := c.Stats()
	c.Probe(0x0) // must not refresh LRU or bump stats
	if c.Stats() != before {
		t.Error("Probe changed stats")
	}
	v, _ := c.Fill(memaddr.PAddr(2*stride), false)
	if v.PA.Line() != 0 {
		t.Errorf("Probe refreshed LRU: evicted %#x, want 0x0", v.PA)
	}
}

// TestNoDuplicateLinesProperty drives random fills/accesses/invalidates
// and verifies the cache never holds a physical line twice.
func TestNoDuplicateLinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "t", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64})
		for i := 0; i < 500; i++ {
			pa := memaddr.PAddr(rng.Intn(1<<14) * 64)
			switch rng.Intn(3) {
			case 0:
				if !c.Access(pa, rng.Intn(2) == 0).Hit {
					c.Fill(pa, false)
				}
			case 1:
				c.Fill(pa, rng.Intn(2) == 0)
			case 2:
				c.Invalidate(pa)
			}
		}
		return c.CheckNoDuplicates() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHitAfterFillProperty: any line just filled must hit until evicted
// or invalidated; capacity is never exceeded.
func TestHitAfterFillProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Name: "t", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64}
		c := New(cfg)
		maxLines := int(cfg.SizeBytes / cfg.LineBytes)
		for i := 0; i < 300; i++ {
			pa := memaddr.PAddr(rng.Intn(1<<13) * 64)
			c.Fill(pa, false)
			if !c.Probe(pa) {
				return false
			}
			if c.LineCount() > maxLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 1000, Ways: 2, LineBytes: 64})
}

func TestSetOfUsesLineAndSetBits(t *testing.T) {
	c := New(cfg32K8W()) // 64 sets, 64B lines
	if c.SetOf(0) != 0 {
		t.Error("addr 0 must map to set 0")
	}
	if c.SetOf(64) != 1 {
		t.Error("one line up must map to set 1")
	}
	if c.SetOf(64*64) != 0 {
		t.Error("set index must wrap at set count")
	}
}
