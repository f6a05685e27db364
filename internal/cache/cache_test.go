package cache

import (
	"math/rand"
	"strings"
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
	bad := []struct {
		cfg  Config
		want string // part of the error
	}{
		{Config{Name: "a", SizeBytes: 0, Ways: 8, LineBytes: 64}, "size 0"},
		{Config{Name: "b", SizeBytes: 30 << 10, Ways: 8, LineBytes: 64}, "not a power of two"},
		{Config{Name: "c", SizeBytes: 32 << 10, Ways: 0, LineBytes: 64}, "ways = 0"},
		{Config{Name: "d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 48}, "line 48"},
		{Config{Name: "e", SizeBytes: 32 << 10, Ways: 3, LineBytes: 64}, "not divisible"},
		{Config{Name: "f", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: -1}, "latency"},
		// Tags of 2-byte lines reach bit 62, a line word's dirty flag.
		{Config{Name: "g", SizeBytes: 32, Ways: 16, LineBytes: 2}, "below 4 bytes"},
		// A recency word holds 16 way numbers.
		{Config{Name: "h", SizeBytes: 32 << 10, Ways: 17, LineBytes: 64}, "17 ways above 16"},
		{Config{Name: "i", SizeBytes: 32 << 10, Ways: 32, LineBytes: 64}, "32 ways above 16"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.cfg.Name, err, c.want)
		}
	}
}

// TestNoTagAliasAtBit63 checks that, for every line size Validate
// accepts, a line whose PA has bit 63 or bit 62 set never answers a
// lookup for the same PA with that bit clear: a line word's valid and
// dirty flags must not collide with a real tag bit.
func TestNoTagAliasAtBit63(t *testing.T) {
	for line := uint64(1); line <= 64; line *= 2 {
		cfg := Config{Name: "alias", SizeBytes: 16 * line, Ways: 16, LineBytes: line}
		if cfg.Validate() != nil {
			continue
		}
		for _, high := range []memaddr.PAddr{1 << 63, 1 << 62} {
			c := New(cfg)
			c.Fill(high|0x40, true)
			if c.Access(0x40, false).Hit {
				t.Errorf("line %d B: PA 0x40 hits the line filled for %#x|0x40", line, uint64(high))
			}
			c.Fill(0x40, false)
			if v, evicted := c.Fill(high|0x40, false); evicted {
				t.Errorf("line %d B: refilling %#x|0x40 evicted %+v", line, uint64(high), v)
			}
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
	if !c.Access(a, false).Hit || !c.Access(d, false).Hit || c.Access(b, false).Hit {
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

// TestMRUWayTracking checks AccessResult.MRUHit, the MRU way
// predictor's outcome: a hit is an MRU hit exactly when its way headed
// the set's recency order before the access.
func TestMRUWayTracking(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	c := New(cfg)
	stride := memaddr.PAddr(cfg.WayBytes())
	c.Fill(0, false)
	c.Fill(stride, false)
	r := c.Access(0, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	// The line at stride was filled later, so 0x0 was not the MRU way.
	if r.MRUHit {
		t.Error("MRUHit true for non-MRU access")
	}
	if r2 := c.Access(0, false); !r2.MRUHit || r2.Way != r.Way {
		t.Errorf("repeat access = %+v, want an MRU hit on way %d", r2, r.Way)
	}
	if r3 := c.Access(stride, true); r3.MRUHit {
		t.Error("MRUHit true after another line's access")
	}
	// A filled line heads its set.
	c.Fill(2*stride, false)
	if r4 := c.Access(2*stride, false); !r4.MRUHit {
		t.Error("access after a fill missed the MRU way")
	}
	if r5 := c.Access(0, false); r5.MRUHit {
		t.Error("MRUHit true for the third most recent line")
	}
}

// TestNoDuplicateLinesProperty drives random fills and accesses
// and verifies the cache never holds a physical line twice.
func TestNoDuplicateLinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "t", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64})
		for i := 0; i < 500; i++ {
			pa := memaddr.PAddr(rng.Intn(1<<14) * 64)
			if rng.Intn(2) == 0 {
				if !c.Access(pa, rng.Intn(2) == 0).Hit {
					c.Fill(pa, false)
				}
			} else {
				c.Fill(pa, rng.Intn(2) == 0)
			}
		}
		return c.CheckNoDuplicates() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHitAfterFillProperty: a line just filled must hit, and capacity
// is never exceeded.
func TestHitAfterFillProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Name: "t", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64}
		c := New(cfg)
		maxLines := int(cfg.SizeBytes / cfg.LineBytes)
		for i := 0; i < 300; i++ {
			pa := memaddr.PAddr(rng.Intn(1<<13) * 64)
			c.Fill(pa, false)
			if !c.Access(pa, false).Hit {
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
