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
	case c.Ways > maxWays:
		// A set's recency word holds 16 four-bit way numbers.
		return fmt.Errorf("cache %s: %d ways above %d", c.Name, c.Ways, maxWays)
	case c.LineBytes == 0 || !memaddr.IsPow2(c.LineBytes):
		return fmt.Errorf("cache %s: line %d not a power of two", c.Name, c.LineBytes)
	case c.LineBytes < 4:
		// Tags are PA>>lineBits; with fewer than two offset bits they
		// reach bit 62 or 63, which a line word keeps for its flags.
		return fmt.Errorf("cache %s: line %d below 4 bytes", c.Name, c.LineBytes)
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

// Each line is one word: the tag (PA>>lineBits), tagValid in bit 63
// and tagDirty in bit 62. An empty way is plain 0. Lookups compare
// the word with tagDirty masked off against tag|tagValid, so an empty
// way never matches and a way scan, the hottest loop in the simulator,
// reads 8 bytes per way and nothing else. Real tags stay below 2^62
// because Validate requires LineBytes >= 4, so neither flag can alias
// a tag bit.
//
// LRU is a recency word per set: Ways 4-bit way numbers, the most
// recently used in the low nibble and the LRU way in nibble Ways-1
// (hence Validate's limit of 16 ways). A new set lists its ways in
// descending order, so the tail is way 0. A hit or a fill moves its
// way to the front; the MRU way-predictor probe reads the head and a
// fill's victim is always the tail. Lines are never invalidated, so
// the empty ways stay behind every valid one in ascending order: the
// tail is the lowest-index empty way while the set fills and the LRU
// way after, the same victim a timestamp LRU picks.
const (
	tagValid = 1 << 63
	tagDirty = 1 << 62
)

// maxWays is the number of 4-bit way numbers a recency word holds.
const maxWays = 16

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
	// lines holds one word per line (see the layout comment above
	// tagValid); set s occupies [s*ways, (s+1)*ways). A flat slab
	// instead of a slice of slices saves the per-access dependent load
	// of a set header.
	lines []uint64
	// order is each set's recency word, most recent way first.
	order     []uint64
	ways      uint64
	tailShift uint   // shift of the LRU nibble in a recency word
	orderMask uint64 // mask of a recency word's Ways nibbles
	setMask   uint64
	lineBits  uint
	stats     Stats

	// lastTag/lastWay memoise the last line Access hit or Fill
	// installed. It heads its set's recency word, so a repeated access
	// needs no way scan and leaves the order unchanged. The tag keeps
	// every bit above the line offset, so it identifies the set too.
	lastTag uint64
	lastWay uint64
	lastHit bool
}

// New builds a cache; it panics on invalid configuration (structural
// parameters are programmer-supplied constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	ways := uint64(cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		lines:     make([]uint64, nSets*ways),
		order:     make([]uint64, nSets),
		ways:      ways,
		tailShift: uint(4 * (ways - 1)),
		orderMask: 1<<(4*ways) - 1, // all ones at 16 ways: the shift yields 0
		setMask:   nSets - 1,
		lineBits:  memaddr.Log2(cfg.LineBytes),
	}
	// Ways in descending order from the head: way 0 is the first victim.
	var seed uint64
	for w := uint64(0); w < ways; w++ {
		seed = seed<<4 | w
	}
	for i := range c.order {
		c.order[i] = seed
	}
	return c
}

// touch moves way to the front of set si's recency word.
//
//sipt:hotpath
func (c *Cache) touch(si, way uint64) {
	o := c.order[si]
	p := uint(0)
	for (o>>p)&0xf != way {
		p += 4
	}
	// The p/4 ways ahead of way move back one nibble; the rest stay.
	ahead := o & (1<<p - 1)
	c.order[si] = o&^(1<<(p+4)-1) | ahead<<4 | way
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
		// The memoised line heads its set, so the predictor fetched it.
		if write {
			c.lines[si*c.ways+c.lastWay] |= tagDirty
		}
		c.stats.Hits++
		return AccessResult{Hit: true, Way: int(c.lastWay), MRUHit: true}
	}
	base := si * c.ways
	lines := c.lines[base : base+c.ways]
	key := tag | tagValid
	for i, l := range lines {
		if l&^tagDirty == key {
			if write {
				lines[i] = l | tagDirty
			}
			way := uint64(i)
			mruHit := c.order[si]&0xf == way
			c.touch(si, way)
			c.stats.Hits++
			c.lastTag, c.lastWay, c.lastHit = tag, way, true
			return AccessResult{Hit: true, Way: i, MRUHit: mruHit}
		}
	}
	c.stats.Misses++
	return AccessResult{}
}

// Fill installs the line containing pa, evicting the LRU way if needed.
// dirty marks the line modified on arrival (write-allocate store miss).
// The victim, if any, is returned so the caller can write it back.
//
//sipt:hotpath
func (c *Cache) Fill(pa memaddr.PAddr, dirty bool) (Victim, bool) {
	c.stats.Fills++
	si := c.SetOf(pa)
	base := si * c.ways
	lines := c.lines[base : base+c.ways]
	tag := c.tagOf(pa)
	key := tag | tagValid
	word := key
	if dirty {
		word |= tagDirty
	}
	c.lastTag, c.lastHit = tag, true
	// A present line is refreshed (refill can happen when an upper
	// level re-fetches after a writeback race); it keeps a dirty bit.
	for i, l := range lines {
		if l&^tagDirty == key {
			lines[i] = l | word
			c.lastWay = uint64(i)
			c.touch(si, c.lastWay)
			return Victim{}, false
		}
	}
	// The victim is the tail; moving it to the front rotates the word.
	o := c.order[si]
	vi := o >> c.tailShift
	c.order[si] = (o<<4 | vi) & c.orderMask
	c.lastWay = vi
	old := lines[vi]
	lines[vi] = word
	if old&tagValid == 0 {
		return Victim{}, false
	}
	victim := Victim{PA: memaddr.PAddr((old &^ (tagValid | tagDirty)) << c.lineBits), Dirty: old&tagDirty != 0}
	if victim.Dirty {
		c.stats.Writebacks++
	}
	return victim, true
}
