// Package tlb models the two-level data TLB of Tab. II: a split L1
// (64 entries for 4 KiB pages, 32 entries for 2 MiB pages, 2-cycle) and
// a unified 1024-entry L2 (7-cycle), with a fixed page-walk penalty on
// a full miss.
//
// The simulator's traces already carry physical addresses (as the
// paper's did), so the TLB is purely a timing/occupancy model: it
// decides how many extra cycles translation costs, which is what SIPT's
// slow path pays. Each of its three arrays is a cache.Cache holding
// page numbers as line addresses (key << memaddr.LineShift), so the
// TLB replaces entries by the caches' LRU and keeps none of its own.
package tlb

import (
	"fmt"

	"sipt/internal/cache"
	"sipt/internal/memaddr"
)

// Config describes the TLB hierarchy.
type Config struct {
	L1SmallEntries int // 4 KiB-page entries
	L1HugeEntries  int // 2 MiB-page entries
	L1Ways         int
	L1Latency      int // cycles, overlapped with L1 cache access in VIPT/SIPT
	L2Entries      int // unified
	L2Ways         int
	L2Latency      int // cycles, paid on an L1 TLB miss
	WalkLatency    int // cycles, paid on a full TLB miss
}

// Default returns the Tab. II TLB configuration. The walk penalty
// approximates a four-level x86 walk hitting mostly in the L2 cache.
func Default() Config {
	return Config{
		L1SmallEntries: 64,
		L1HugeEntries:  32,
		L1Ways:         4,
		L1Latency:      2,
		L2Entries:      1024,
		L2Ways:         8,
		L2Latency:      7,
		WalkLatency:    50,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	arrays := c.arrays()
	for i, entries := range [3]int{c.L1SmallEntries, c.L1HugeEntries, c.L2Entries} {
		if entries <= 0 {
			return fmt.Errorf("tlb: %s entries = %d", arrays[i].Name, entries)
		}
		if err := arrays[i].Validate(); err != nil {
			return fmt.Errorf("tlb: %w", err)
		}
	}
	if c.L1Latency < 0 || c.L2Latency < 0 || c.WalkLatency < 0 {
		return fmt.Errorf("tlb: negative latency")
	}
	return nil
}

// arrays returns the geometries of the L1-small, L1-huge and L2 arrays,
// one line per entry.
func (c Config) arrays() [3]cache.Config {
	array := func(name string, entries, ways int) cache.Config {
		return cache.Config{Name: name, SizeBytes: uint64(entries) << memaddr.LineShift,
			Ways: ways, LineBytes: memaddr.LineBytes}
	}
	return [3]cache.Config{
		array("L1-small", c.L1SmallEntries, c.L1Ways),
		array("L1-huge", c.L1HugeEntries, c.L1Ways),
		array("L2", c.L2Entries, c.L2Ways),
	}
}

// Stats counts TLB outcomes.
type Stats struct {
	Lookups  uint64
	L1Hits   uint64
	L2Hits   uint64
	Walks    uint64
	HugeHits uint64 // L1 hits served by the huge-page array
}

// TLB is the two-level data TLB.
type TLB struct {
	cfg                 Config
	l1Small, l1Huge, l2 *cache.Cache
}

// New builds a TLB; it panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := cfg.arrays()
	return &TLB{cfg: cfg, l1Small: cache.New(a[0]), l1Huge: cache.New(a[1]), l2: cache.New(a[2])}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns the counters, read off the three arrays: every lookup
// probes one L1 array, every L1 miss probes the L2, and every L2 miss
// walks.
func (t *TLB) Stats() Stats {
	small, huge, l2 := t.l1Small.Stats(), t.l1Huge.Stats(), t.l2.Stats()
	return Stats{
		Lookups:  small.Accesses + huge.Accesses,
		L1Hits:   small.Hits + huge.Hits,
		L2Hits:   l2.Hits,
		Walks:    l2.Misses,
		HugeHits: huge.Hits,
	}
}

// Result reports the timing outcome of one translation.
type Result struct {
	// Penalty is the extra latency in cycles beyond the L1 TLB access
	// that is already overlapped with the cache probe: 0 on an L1 TLB
	// hit, L2Latency on an L2 hit, L2Latency+WalkLatency on a walk.
	Penalty int
	L1Hit   bool
}

// Translate performs the timing lookup for a virtual address. huge
// selects the 2 MiB array (the paper's traces carry this page flag).
// The entry is installed in both levels on the way back from a miss.
//
//sipt:hotpath
func (t *TLB) Translate(va memaddr.VAddr, huge bool) Result {
	l1, key := t.l1Small, uint64(va.PageNum())
	if huge {
		l1, key = t.l1Huge, va.HugePageNum()
	}
	line := memaddr.PAddr(key << memaddr.LineShift)
	if l1.Access(line, false).Hit {
		return Result{L1Hit: true}
	}
	penalty := t.cfg.L2Latency
	if !t.l2.Access(line, false).Hit {
		penalty += t.cfg.WalkLatency
		t.l2.Fill(line, false)
	}
	l1.Fill(line, false)
	return Result{Penalty: penalty}
}
