// Package cache implements the set-associative write-back caches the
// simulator's hierarchy is built from. Contents are always indexed by
// physical address: SIPT speculation affects *which set a probe reads*
// (timing and extra accesses, handled in internal/core), never what the
// cache stores, which is exactly the paper's correctness argument —
// tags are physical, so a wrong-set probe simply misses and is retried.
package cache

import (
	"fmt"

	"sipt/internal/memaddr"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes uint64
	Ways      int
	LineBytes uint64
	// LatencyCycles is the hit latency of this level.
	LatencyCycles int
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || !memaddr.IsPow2(c.SizeBytes):
		return fmt.Errorf("cache %s: size %d not a power of two", c.Name, c.SizeBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: ways = %d", c.Name, c.Ways)
	case c.LineBytes == 0 || !memaddr.IsPow2(c.LineBytes):
		return fmt.Errorf("cache %s: line %d not a power of two", c.Name, c.LineBytes)
	case c.LineBytes < 2:
		// Tags are PA>>lineBits; with no offset bit they reach bit 63,
		// which the tag store reserves for its valid flag (tagValid).
		return fmt.Errorf("cache %s: line %d below 2 bytes", c.Name, c.LineBytes)
	case c.SizeBytes%(uint64(c.Ways)*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	case !memaddr.IsPow2(c.SizeBytes / (uint64(c.Ways) * c.LineBytes)):
		return fmt.Errorf("cache %s: set count not a power of two", c.Name)
	case c.LatencyCycles < 0:
		return fmt.Errorf("cache %s: latency %d", c.Name, c.LatencyCycles)
	}
	return nil
}

// Sets returns the number of sets the configuration implies.
func (c Config) Sets() uint64 { return c.SizeBytes / (uint64(c.Ways) * c.LineBytes) }

// WayBytes returns the capacity of one way.
func (c Config) WayBytes() uint64 { return c.SizeBytes / uint64(c.Ways) }

// SpecBits returns how many index bits beyond the 4 KiB page offset
// this geometry needs — the number of bits SIPT must speculate. A VIPT
// cache requires this to be zero.
func (c Config) SpecBits() uint {
	wayBytes := c.WayBytes()
	if wayBytes <= memaddr.PageBytes {
		return 0
	}
	return memaddr.Log2(wayBytes) - memaddr.PageShift
}

// Line metadata is stored structure-of-arrays: one slab per field
// (tags, stamps, dirty bits) instead of an array of 16-byte line
// structs. The way scan — the hottest loop in the simulator — then
// touches only the tag slab: 8 bytes per way, so an 8-way set's scan
// reads one hardware cache line instead of two, and a 16-way LLC set
// reads two instead of four. Stamps are read only on fills (LRU
// victim choice) and written on non-memoised hits; dirty bits only on
// writes and evictions.
//
// The valid flag is folded into the tag's high bit (tagValid): a
// stored tag is realTag|tagValid, an empty slot is 0. Lookups compare
// against key|tagValid, so invalid slots can never match (real tags
// are PA>>lineBits < 2^63, because Validate requires LineBytes >= 2)
// and the scan needs no separate valid load.
// Invalid slots keep stamp 0, preserving the AoS victim-scan order.
const tagValid = 1 << 63

// Stats accumulates per-level access counters.
type Stats struct {
	Accesses   uint64 // demand accesses (loads + stores)
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions pushed to the next level
	Fills      uint64
}

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative write-back, write-allocate cache.
type Cache struct {
	cfg Config
	// tags/stamps/dirty are the flat per-field backing arrays: set s
	// occupies index range [s*ways, (s+1)*ways) in each. Flat slabs
	// instead of a slice of slices save the per-access dependent load
	// of a set header; the per-field split keeps the way scan on the
	// tag slab only (see the layout comment above tagValid).
	tags   []uint64 // realTag|tagValid when occupied, 0 when free
	stamps []uint32 // LRU: larger = more recently used; 0 when free
	dirty  []bool
	ways   uint64
	// mru tracks each set's most-recently-used way incrementally (-1
	// for an empty set), so the per-access MRU way-predictor probe is
	// O(1) instead of a scan. The invariant: mru[s] is the valid way of
	// set s with the largest stamp, because every stamp update (Access
	// hit, Fill) also updates mru.
	mru      []int16
	setMask  uint64
	lineBits uint
	clock    uint32
	stats    Stats

	// lastTag/lastWay memoise the previous demand hit: word walks
	// re-access the same line several times in a row, and a repeated hit
	// of the most-recently-touched line needs no way scan and no stamp
	// update (the line is already the newest everywhere its stamp could
	// be compared). The tag keeps every bit above the line offset, so it
	// identifies the set too. Fill and Invalidate clear the memo.
	lastTag uint64
	lastWay int16
	lastHit bool
}

// New builds a cache; it panics on invalid configuration (structural
// parameters are programmer-supplied constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	nLines := nSets * uint64(cfg.Ways)
	mru := make([]int16, nSets)
	for i := range mru {
		mru[i] = -1
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, nLines),
		stamps:   make([]uint32, nLines),
		dirty:    make([]bool, nLines),
		ways:     uint64(cfg.Ways),
		mru:      mru,
		setMask:  nSets - 1,
		lineBits: memaddr.Log2(cfg.LineBytes),
	}
}

// tick advances the LRU clock. On 32-bit wraparound (4 billion touches
// of one cache) the stamps are compacted: relative order within each
// set is all LRU and the MRU predictor need, so the stamps are rebased
// to small ranks and the clock restarts above them.
//
//sipt:hotpath
func (c *Cache) tick() uint32 {
	c.clock++
	if c.clock == 0 {
		c.clock = c.compactStamps() + 1
	}
	return c.clock
}

// compactStamps rebases every set's stamps to 1..ways, preserving each
// set's exact LRU order, and returns the largest stamp now in use.
// Stamps within a set are unique (every update draws a fresh tick), so
// ranking by stamp is a total order; the index tie-break is defensive.
// Runs once per 2^32-1 ticks: clarity over speed.
func (c *Cache) compactStamps() uint32 {
	var maxStamp uint32
	old := make([]uint32, c.ways)
	ways := int(c.ways)
	for si := uint64(0); si <= c.setMask; si++ {
		base := si * c.ways
		tags := c.tags[base : base+c.ways]
		stamps := c.stamps[base : base+c.ways]
		copy(old, stamps)
		for i := 0; i < ways; i++ {
			if tags[i]&tagValid == 0 {
				stamps[i] = 0
				continue
			}
			rank := uint32(1)
			for j := 0; j < ways; j++ {
				if j == i || tags[j]&tagValid == 0 {
					continue
				}
				if old[j] < old[i] || (old[j] == old[i] && j < i) {
					rank++
				}
			}
			stamps[i] = rank
			if rank > maxStamp {
				maxStamp = rank
			}
		}
	}
	return maxStamp
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in cycles. Hot paths use this
// instead of Config().LatencyCycles to avoid copying the whole Config
// (its Name header included) per access.
func (c *Cache) Latency() int { return c.cfg.LatencyCycles }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetOf returns the set index a physical address maps to.
func (c *Cache) SetOf(pa memaddr.PAddr) uint64 {
	return (uint64(pa) >> c.lineBits) & c.setMask
}

func (c *Cache) tagOf(pa memaddr.PAddr) uint64 {
	// The tag keeps every bit above the line offset. That is more bits
	// than hardware would store, but it makes wrong-set aliasing
	// impossible by construction, matching SIPT's full physical tag
	// check ("always checking the full tag on a lookup").
	return uint64(pa) >> c.lineBits
}

// Victim describes a line evicted by a fill.
type Victim struct {
	PA    memaddr.PAddr
	Dirty bool
}

// AccessResult reports the outcome of one demand access.
type AccessResult struct {
	Hit bool
	// Way is the way that hit (valid only when Hit).
	Way int
	// MRUHit reports whether the hit way was the set's MRU way *before*
	// this access — the way an MRU way-predictor would have fetched.
	MRUHit bool
}

// Access performs a demand load/store lookup, updating LRU on hit.
// Misses do not fill; the caller fetches from the next level and then
// calls Fill, which is what lets the hierarchy account latency and
// energy per level.
//
//sipt:hotpath
func (c *Cache) Access(pa memaddr.PAddr, write bool) AccessResult {
	c.stats.Accesses++
	si := c.SetOf(pa)
	tag := c.tagOf(pa)
	if c.lastHit && c.lastTag == tag {
		// Repeated hit of the most recent line: it is the MRU way of its
		// set by construction, so the predictor would have fetched it.
		if write {
			c.dirty[si*c.ways+uint64(c.lastWay)] = true
		}
		c.stats.Hits++
		return AccessResult{Hit: true, Way: int(c.lastWay), MRUHit: true}
	}
	now := c.tick()
	base := si * c.ways
	tags := c.tags[base : base+c.ways]
	key := tag | tagValid
	mru := int(c.mru[si])
	for i := range tags {
		if tags[i] == key {
			c.stamps[base+uint64(i)] = now
			c.mru[si] = int16(i)
			if write {
				c.dirty[base+uint64(i)] = true
			}
			c.stats.Hits++
			c.lastTag, c.lastWay, c.lastHit = tag, int16(i), true
			return AccessResult{Hit: true, Way: i, MRUHit: i == mru}
		}
	}
	c.stats.Misses++
	c.lastHit = false
	return AccessResult{}
}

// Probe checks for presence without touching LRU, stats, or dirty bits.
func (c *Cache) Probe(pa memaddr.PAddr) bool {
	base := c.SetOf(pa) * c.ways
	key := c.tagOf(pa) | tagValid
	for _, t := range c.tags[base : base+c.ways] {
		if t == key {
			return true
		}
	}
	return false
}

// Fill installs the line containing pa, evicting the LRU way if needed.
// dirty marks the line modified on arrival (write-allocate store miss).
// The victim, if any, is returned so the caller can write it back.
//
//sipt:hotpath
func (c *Cache) Fill(pa memaddr.PAddr, dirty bool) (Victim, bool) {
	now := c.tick()
	c.stats.Fills++
	c.lastHit = false
	si := c.SetOf(pa)
	base := si * c.ways
	tags := c.tags[base : base+c.ways]
	stamps := c.stamps[base : base+c.ways]
	tag := c.tagOf(pa)
	key := tag | tagValid
	// One pass decides everything: a present line is refreshed (refill
	// can happen when an upper level re-fetches after a writeback race);
	// otherwise the victim is the first invalid way, else the LRU way.
	// Invalid ways keep stamp 0, so the LRU comparison sees the same
	// values the AoS zero-valued line struct had.
	vi, free := 0, -1
	for i := range tags {
		if tags[i]&tagValid == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if tags[i] == key {
			stamps[i] = now
			c.mru[si] = int16(i)
			if dirty {
				c.dirty[base+uint64(i)] = true
			}
			return Victim{}, false
		}
		if stamps[i] < stamps[vi] {
			vi = i
		}
	}
	if free >= 0 {
		vi = free
	}
	var victim Victim
	evicted := tags[vi]&tagValid != 0
	if evicted {
		victim = Victim{PA: memaddr.PAddr((tags[vi] &^ tagValid) << c.lineBits), Dirty: c.dirty[base+uint64(vi)]}
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	tags[vi] = key
	stamps[vi] = now
	c.dirty[base+uint64(vi)] = dirty
	c.mru[si] = int16(vi)
	return victim, evicted
}

// Invalidate drops the line containing pa if present, returning whether
// it was dirty (the caller owns the writeback).
func (c *Cache) Invalidate(pa memaddr.PAddr) (dirty, present bool) {
	c.lastHit = false
	si := c.SetOf(pa)
	base := si * c.ways
	key := c.tagOf(pa) | tagValid
	for i := uint64(0); i < c.ways; i++ {
		if c.tags[base+i] == key {
			d := c.dirty[base+i]
			c.tags[base+i] = 0
			c.stamps[base+i] = 0
			c.dirty[base+i] = false
			if uint64(c.mru[si]) == i {
				// The MRU line vanished; fall back to a scan.
				c.mru[si] = int16(c.mruWayOf(base))
			}
			return d, true
		}
	}
	return false, false
}

// MRUWay returns the most-recently-used way of the set pa maps to, or
// -1 for an empty set. This is the prediction of the paper's simple MRU
// way predictor (Sec. VII-A).
func (c *Cache) MRUWay(pa memaddr.PAddr) int {
	return int(c.mru[c.SetOf(pa)])
}

// mruWayOf rescans the set starting at slab index base for its
// highest-stamped valid way, or -1 for an empty set.
func (c *Cache) mruWayOf(base uint64) int {
	best := -1
	var bestStamp uint32
	for i := uint64(0); i < c.ways; i++ {
		if c.tags[base+i]&tagValid != 0 && (best == -1 || c.stamps[base+i] > bestStamp) {
			best = int(i)
			bestStamp = c.stamps[base+i]
		}
	}
	return best
}

// CheckNoDuplicates verifies no physical line appears twice (tests).
func (c *Cache) CheckNoDuplicates() error {
	seen := make(map[uint64]bool)
	for i, t := range c.tags {
		if t&tagValid == 0 {
			continue
		}
		if seen[t] {
			return fmt.Errorf("cache %s: tag %#x duplicated (set %d)", c.cfg.Name, t&^uint64(tagValid), uint64(i)/c.ways)
		}
		seen[t] = true
	}
	return nil
}

// LineCount returns the number of valid lines (tests).
func (c *Cache) LineCount() int {
	n := 0
	for _, t := range c.tags {
		if t&tagValid != 0 {
			n++
		}
	}
	return n
}
