// Package tlb models the two-level data TLB of Tab. II: a split L1
// (64 entries for 4 KiB pages, 32 entries for 2 MiB pages, 2-cycle) and
// a unified 1024-entry L2 (7-cycle), with a fixed page-walk penalty on
// a full miss.
//
// The simulator's traces already carry physical addresses (as the
// paper's did), so the TLB is purely a timing/occupancy model: it
// decides how many extra cycles translation costs, which is what SIPT's
// slow path pays.
package tlb

import (
	"fmt"

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
	check := func(name string, entries, ways int) error {
		if entries <= 0 || ways <= 0 || entries%ways != 0 {
			return fmt.Errorf("tlb: %s entries=%d ways=%d", name, entries, ways)
		}
		if !memaddr.IsPow2(uint64(entries / ways)) {
			return fmt.Errorf("tlb: %s set count not a power of two", name)
		}
		return nil
	}
	if err := check("L1-small", c.L1SmallEntries, c.L1Ways); err != nil {
		return err
	}
	if err := check("L1-huge", c.L1HugeEntries, c.L1Ways); err != nil {
		return err
	}
	if err := check("L2", c.L2Entries, c.L2Ways); err != nil {
		return err
	}
	if c.L1Latency < 0 || c.L2Latency < 0 || c.WalkLatency < 0 {
		return fmt.Errorf("tlb: negative latency")
	}
	return nil
}

// Stats counts TLB outcomes.
type Stats struct {
	Lookups  uint64
	L1Hits   uint64
	L2Hits   uint64
	Walks    uint64
	HugeHits uint64 // L1 hits served by the huge-page array
}

// array is one set-associative translation array (timing only: it
// stores page numbers, not translations).
type array struct {
	sets    [][]entry
	setMask uint64
	clock   uint32
	// lastKey/lastHit memoise the previous lookup: page-local streaks
	// re-translate the same page many times in a row, and a repeated hit
	// of the most-recently-touched entry needs no scan and no stamp
	// update (the entry is already the newest, so every later stamp
	// comparison resolves identically).
	lastKey uint64
	lastHit bool
}

// entry is packed to 16 bytes (see internal/cache's line); when the
// 32-bit LRU clock wraps, tick compacts the stamps instead of failing.
type entry struct {
	key   uint64
	stamp uint32
	valid bool
}

// tick advances the LRU clock. On 32-bit wraparound the stamps are
// compacted: relative order within each set is all LRU needs, so the
// stamps are rebased to small ranks and the clock restarts above them.
//
//sipt:hotpath
func (a *array) tick() uint32 {
	a.clock++
	if a.clock == 0 {
		a.clock = a.compactStamps() + 1
	}
	return a.clock
}

// compactStamps rebases every set's stamps to 1..ways, preserving each
// set's exact LRU order, and returns the largest stamp now in use.
// Stamps within a set are unique (every update draws a fresh tick), so
// ranking by stamp is a total order; the index tie-break is defensive.
// Runs once per 2^32-1 ticks: clarity over speed.
func (a *array) compactStamps() uint32 {
	var maxStamp uint32
	var old []uint32
	for _, set := range a.sets {
		old = append(old[:0], make([]uint32, len(set))...)
		for i := range set {
			old[i] = set[i].stamp
		}
		for i := range set {
			if !set[i].valid {
				set[i].stamp = 0
				continue
			}
			rank := uint32(1)
			for j := range set {
				if j == i || !set[j].valid {
					continue
				}
				if old[j] < old[i] || (old[j] == old[i] && j < i) {
					rank++
				}
			}
			set[i].stamp = rank
			if rank > maxStamp {
				maxStamp = rank
			}
		}
	}
	return maxStamp
}

// newArray builds a set-associative array of entries/ways sets, each
// carved from one backing slice.
func newArray(entries, ways int) array {
	nSets := entries / ways
	backing := make([]entry, entries)
	a := array{sets: make([][]entry, nSets), setMask: uint64(nSets) - 1}
	for i := range a.sets {
		a.sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return a
}

//sipt:hotpath
func (a *array) lookup(key uint64) bool {
	if a.lastHit && a.lastKey == key {
		return true
	}
	now := a.tick()
	set := a.sets[key&a.setMask]
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].stamp = now
			a.lastKey, a.lastHit = key, true
			return true
		}
	}
	a.lastKey, a.lastHit = key, false
	return false
}

//sipt:hotpath
func (a *array) insert(key uint64) {
	now := a.tick()
	set := a.sets[key&a.setMask]
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].stamp < set[vi].stamp {
			vi = i
		}
	}
	set[vi] = entry{key: key, stamp: now, valid: true}
	a.lastKey, a.lastHit = key, true
}

// TLB is the two-level data TLB.
type TLB struct {
	cfg     Config
	l1Small array
	l1Huge  array
	l2      array
	stats   Stats
}

// New builds a TLB; it panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:     cfg,
		l1Small: newArray(cfg.L1SmallEntries, cfg.L1Ways),
		l1Huge:  newArray(cfg.L1HugeEntries, cfg.L1Ways),
		l2:      newArray(cfg.L2Entries, cfg.L2Ways),
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

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
//
//sipt:hotpath
func (t *TLB) Translate(va memaddr.VAddr, huge bool) Result {
	t.stats.Lookups++
	if huge {
		key := va.HugePageNum()
		if t.l1Huge.lookup(key) {
			t.stats.L1Hits++
			t.stats.HugeHits++
			return Result{L1Hit: true}
		}
		return t.missPath(key, &t.l1Huge)
	}
	key := uint64(va.PageNum())
	if t.l1Small.lookup(key) {
		t.stats.L1Hits++
		return Result{L1Hit: true}
	}
	return t.missPath(key, &t.l1Small)
}

// missPath handles L1 TLB misses: L2 lookup, then walk; the entry is
// installed in both levels on the way back.
//
//sipt:hotpath
func (t *TLB) missPath(key uint64, l1 *array) Result {
	if t.l2.lookup(key) {
		t.stats.L2Hits++
		l1.insert(key)
		return Result{Penalty: t.cfg.L2Latency}
	}
	t.stats.Walks++
	t.l2.insert(key)
	l1.insert(key)
	return Result{Penalty: t.cfg.L2Latency + t.cfg.WalkLatency}
}
