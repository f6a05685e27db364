// Package core implements the paper's contribution: the SIPT
// (speculatively indexed, physically tagged) L1 data cache access
// engine, in its three variants plus the reference points the paper
// compares against.
//
// The engine wraps a physically-indexed cache (internal/cache) and
// decides, per access, whether the L1 arrays are read with a
// speculative index before translation (a "fast" access at the SIPT
// latency), read again after translation because the speculated bits
// were wrong (a "slow" access plus a wasted array read), or read only
// after translation (a "bypassed" access). Contents and hit/miss
// behaviour are always physical — speculation is pure timing/energy,
// which is the paper's correctness argument.
package core

import (
	"fmt"
	"strings"

	"sipt/internal/cache"
	"sipt/internal/memaddr"
	"sipt/internal/predictor"
)

// Mode selects the indexing scheme.
type Mode int

const (
	// ModeVIPT is the conventional baseline: indexing uses only page
	// offset bits. Geometries needing speculative bits degrade to PIPT
	// behaviour (access starts after translation) — the design VIPT
	// constraints forbid, kept for ablation.
	ModeVIPT Mode = iota
	// ModeIdeal always has the correct index bits with no translation
	// wait: the paper's upper bound ("ideal cache").
	ModeIdeal
	// ModeNaive always speculates that the index bits survive
	// translation (Sec. IV).
	ModeNaive
	// ModeBypass adds the perceptron speculate/bypass filter (Sec. V).
	ModeBypass
	// ModeCombined adds the IDB on top of the bypass predictor: bypass
	// decisions are converted into index-value predictions (Sec. VI).
	ModeCombined
)

// String returns the mode's report label.
func (m Mode) String() string {
	switch m {
	case ModeVIPT:
		return "vipt"
	case ModeIdeal:
		return "ideal"
	case ModeNaive:
		return "naive"
	case ModeBypass:
		return "bypass"
	case ModeCombined:
		return "combined"
	default:
		return "unknown"
	}
}

// ParseMode inverts String: it resolves a user-supplied mode label
// (case-insensitive) for the CLI flags and the siptd API.
func ParseMode(s string) (Mode, error) {
	for m := ModeVIPT; m <= ModeCombined; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: bad mode %q (vipt|ideal|naive|bypass|combined)", s)
}

// Config describes a SIPT L1.
type Config struct {
	Cache cache.Config // geometry; LatencyCycles is the (fast) hit latency
	Mode  Mode
	// TLBLatency is the L1 TLB access time; a slow access starts
	// "right after TLB access" (Fig. 4, step 4).
	TLBLatency int
	// WayPrediction enables the MRU way predictor (Sec. VII-A).
	WayPrediction bool
	// PerfectWayPrediction makes every predicted way correct; the paper's
	// ideal reference in Figs. 16/17 assumes this ("ideal caches also
	// assume way prediction always accesses the correct way").
	PerfectWayPrediction bool
	// NoContig puts the IDB in the zero->4KiB-contiguity sensitivity
	// mode (Sec. VII-B).
	NoContig bool
	// Seed feeds the NoContig random-delta draw.
	Seed int64
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.TLBLatency < 0 {
		return fmt.Errorf("core: TLBLatency = %d", c.TLBLatency)
	}
	if c.Mode < ModeVIPT || c.Mode > ModeCombined {
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	return nil
}

// Stats aggregates the engine's outcome counters. The identities
// Fast+Slow+Bypassed == Accesses, Extra == Slow (every slow access
// in speculating modes wasted exactly one array read), and
// ArrayAccesses == Accesses + Extra + (WayProbes - WayHits) (each
// way-mispredicted hit pays a second sequential array pass) are
// asserted by tests and by CheckInvariants.
type Stats struct {
	Accesses uint64
	Loads    uint64
	Stores   uint64

	Fast     uint64 // completed at the fast latency with a speculative index
	Slow     uint64 // speculated wrong; re-accessed after translation
	Bypassed uint64 // waited for translation by prediction (or VIPT/PIPT)

	FastSpec uint64 // Fig. 12: fast via the bypass predictor saying "speculate"
	FastIDB  uint64 // Fig. 12: fast via IDB (or reversed 1-bit) value prediction

	Extra         uint64 // wasted array reads (== misspeculations)
	ArrayAccesses uint64 // total L1 array reads (energy / port slots)

	Hits   uint64
	Misses uint64

	WayProbes uint64 // L1 hits while way prediction is on
	WayHits   uint64 // ... that hit in the MRU-predicted way
}

// FastFraction returns the fraction of accesses served fast.
func (s Stats) FastFraction() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Fast) / float64(s.Accesses)
}

// ExtraAccessRate returns extra array reads per demand access —
// the paper's "additional accesses" metric (Figs. 6, 13, 15).
func (s Stats) ExtraAccessRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Extra) / float64(s.Accesses)
}

// WayAccuracy returns the way-prediction hit rate.
func (s Stats) WayAccuracy() float64 {
	if s.WayProbes == 0 {
		return 0
	}
	return float64(s.WayHits) / float64(s.WayProbes)
}

// CheckInvariants verifies internal accounting identities.
func (s Stats) CheckInvariants() error {
	if s.Fast+s.Slow+s.Bypassed != s.Accesses {
		return fmt.Errorf("core: fast %d + slow %d + bypassed %d != accesses %d",
			s.Fast, s.Slow, s.Bypassed, s.Accesses)
	}
	if s.Extra != s.Slow {
		return fmt.Errorf("core: extra %d != slow %d", s.Extra, s.Slow)
	}
	if s.Hits+s.Misses != s.Accesses {
		return fmt.Errorf("core: hits %d + misses %d != accesses %d",
			s.Hits, s.Misses, s.Accesses)
	}
	if s.Loads+s.Stores != s.Accesses {
		return fmt.Errorf("core: loads %d + stores %d != accesses %d",
			s.Loads, s.Stores, s.Accesses)
	}
	if s.WayHits > s.WayProbes {
		return fmt.Errorf("core: way hits %d > way probes %d", s.WayHits, s.WayProbes)
	}
	// Every access reads the arrays once; each misspeculation and each
	// way-mispredicted hit adds one more sequential pass.
	if wayMiss := s.WayProbes - s.WayHits; s.ArrayAccesses != s.Accesses+s.Extra+wayMiss {
		return fmt.Errorf("core: array accesses %d != accesses %d + extra %d + way mispredictions %d",
			s.ArrayAccesses, s.Accesses, s.Extra, wayMiss)
	}
	return nil
}

// Result describes the timing outcome of one access, before any miss
// penalty from the lower hierarchy (the caller owns the miss path).
type Result struct {
	Hit bool
	// Latency is the L1 pipeline latency in cycles: fast-path hits cost
	// the configured latency; slow/bypassed paths include the
	// translation wait; way mispredictions add a second array pass.
	Latency int
	// ArraySlots is how many L1 array accesses this operation consumed
	// (port occupancy and dynamic energy): 1, plus one per extra
	// sequential pass (a misspeculation, a way-mispredicted hit, or
	// both).
	ArraySlots int
	Fast       bool
	Extra      bool // a wasted array access occurred
	Bypassed   bool
	// WayPredicted/WayHit describe the way predictor on an L1 hit.
	WayPredicted bool
	WayHit       bool
}

// L1 is the SIPT L1 data cache engine.
type L1 struct {
	cfg      Config
	cache    *cache.Cache
	specBits uint
	bypass   *predictor.Perceptron
	idb      *predictor.IDB
	stats    Stats
}

// New builds the engine; it panics on invalid configuration.
func New(cfg Config) *L1 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &L1{cfg: cfg, cache: cache.New(cfg.Cache), specBits: cfg.Cache.SpecBits()}
	if NeedsBypass(cfg.Mode) {
		l.bypass = predictor.NewPerceptron()
	}
	// Combined mode with a single speculative bit uses the reversed
	// prediction instead of an IDB.
	if cfg.Mode == ModeCombined && l.specBits > 1 {
		l.idb = predictor.NewIDB(l.specBits, cfg.NoContig, cfg.Seed)
	}
	return l
}

// NeedsBypass reports whether the mode carries a perceptron bypass
// predictor.
func NeedsBypass(m Mode) bool { return m == ModeBypass || m == ModeCombined }

// Config returns the engine configuration.
func (l *L1) Config() Config { return l.cfg }

// SpecBits returns the number of speculative index bits the geometry
// requires.
func (l *L1) SpecBits() uint { return l.specBits }

// Stats returns a copy of the outcome counters.
func (l *L1) Stats() Stats { return l.stats }

// CacheStats exposes the underlying cache counters.
func (l *L1) CacheStats() cache.Stats { return l.cache.Stats() }

// BypassStats exposes the perceptron's Fig. 9 outcome counters
// (zero value when the mode has no bypass predictor).
func (l *L1) BypassStats() predictor.PerceptronStats {
	if l.bypass == nil {
		return predictor.PerceptronStats{}
	}
	return l.bypass.Stats()
}

// IDBStats exposes the IDB counters (zero value when absent).
func (l *L1) IDBStats() predictor.IDBStats {
	if l.idb == nil {
		return predictor.IDBStats{}
	}
	return l.idb.Stats()
}

// Access performs one load or store. The caller must later call Fill
// for misses (after fetching the line from the next level).
//
//sipt:hotpath
func (l *L1) Access(pc uint64, va memaddr.VAddr, pa memaddr.PAddr, store bool) Result {
	var res Result
	l.AccessInto(&res, pc, va, pa, store)
	return res
}

// AccessInto is Access writing through res: the hierarchy's per-record
// path uses it to avoid returning the Result struct by value.
//
//sipt:hotpath
func (l *L1) AccessInto(res *Result, pc uint64, va memaddr.VAddr, pa memaddr.PAddr, store bool) {
	*res = Result{}
	l.stats.Accesses++
	if store {
		l.stats.Stores++
	} else {
		l.stats.Loads++
	}

	l.indexPath(res, pc, va, pa)

	// Functional access: always physical, independent of speculation.
	ar := l.cache.Access(pa, store)
	res.Hit = ar.Hit
	if ar.Hit {
		l.stats.Hits++
	} else {
		l.stats.Misses++
	}

	// Way prediction (Sec. VII-A): the MRU way is fetched first; a
	// mispredicted hit pays a second, sequential array pass, which is a
	// real array read: it occupies a port slot and burns dynamic energy
	// (Fig. 17), so it counts in ArraySlots/ArrayAccesses. Misses search
	// all ways anyway and their latency is dominated downstream.
	if l.cfg.WayPrediction && ar.Hit {
		res.WayPredicted = true
		l.stats.WayProbes++
		if ar.MRUHit || l.cfg.PerfectWayPrediction {
			res.WayHit = true
			l.stats.WayHits++
		} else {
			res.Latency += l.cfg.Cache.LatencyCycles
			res.ArraySlots++
		}
	}

	l.stats.ArrayAccesses += uint64(res.ArraySlots)
	if res.Fast {
		l.stats.Fast++
	} else if res.Bypassed {
		l.stats.Bypassed++
	} else {
		l.stats.Slow++
		l.stats.Extra++
	}
}

// indexPath runs the mode-specific speculation flow and fills res with
// the timing skeleton (latency, array slots, outcome class). Writing
// through a pointer instead of returning the 40-byte Result avoids a
// per-record struct copy on this hot path.
//
//sipt:hotpath
func (l *L1) indexPath(res *Result, pc uint64, va memaddr.VAddr, pa memaddr.PAddr) {
	lat := l.cfg.Cache.LatencyCycles
	slowLat := l.cfg.TLBLatency + lat

	// Geometries within VIPT constraints never speculate: the offset
	// bits are exact in every mode.
	if l.specBits == 0 {
		res.Latency, res.ArraySlots, res.Fast = lat, 1, true
		return
	}

	unchanged := memaddr.BitsUnchanged(va, pa, l.specBits)

	switch l.cfg.Mode {
	case ModeVIPT:
		// Infeasible geometry under VIPT: behaves as PIPT (kept for
		// ablation studies).
		res.Latency, res.ArraySlots, res.Bypassed = slowLat, 1, true

	case ModeIdeal:
		res.Latency, res.ArraySlots, res.Fast = lat, 1, true

	case ModeNaive:
		if unchanged {
			res.Latency, res.ArraySlots, res.Fast = lat, 1, true
		} else {
			res.Latency, res.ArraySlots, res.Extra = slowLat, 2, true
		}

	case ModeBypass:
		speculate := l.bypass.Predict(pc)
		l.bypass.Train(pc, speculate, unchanged)
		switch {
		case !speculate:
			res.Latency, res.ArraySlots, res.Bypassed = slowLat, 1, true
		case unchanged:
			res.Latency, res.ArraySlots, res.Fast = lat, 1, true
		default:
			res.Latency, res.ArraySlots, res.Extra = slowLat, 2, true
		}

	default: // ModeCombined
		l.combinedPath(res, pc, va, pa, unchanged, lat, slowLat)
	}
}

// combinedPath implements Sec. VI-A: query the perceptron; on
// "speculate" use the virtual bits, on "bypass" use the IDB's predicted
// delta (or, with a single speculative bit, the reversed prediction —
// flip the bit). Either way the L1 is always accessed before
// translation.
//
//sipt:hotpath
func (l *L1) combinedPath(res *Result, pc uint64, va memaddr.VAddr, pa memaddr.PAddr,
	unchanged bool, lat, slowLat int) {

	speculate := l.bypass.Predict(pc)
	l.bypass.Train(pc, speculate, unchanged)

	if speculate {
		if unchanged {
			l.stats.FastSpec++
			res.Latency, res.ArraySlots, res.Fast = lat, 1, true
			return
		}
		// The IDB still learns the true delta from this misspeculation.
		if l.idb != nil {
			l.idb.Train(pc, uint64(va.PageNum()),
				memaddr.IndexDelta(va, pa, l.specBits), false, false)
		}
		res.Latency, res.ArraySlots, res.Extra = slowLat, 2, true
		return
	}

	// Bypass decision: predict the index-bit values instead.
	trueBits := memaddr.IndexBitsPA(pa, l.specBits)
	var predBits uint64
	usedIDB := false
	if l.specBits == 1 {
		// Reversed prediction: "bypass" means the bit most likely
		// changed, so flip it.
		predBits = memaddr.ApplyDelta(va, 1, 1)
	} else {
		delta, ok := l.idb.Predict(pc, uint64(va.PageNum()))
		if !ok {
			delta = 0 // cold entry: fall back to naive speculation
		}
		predBits = memaddr.ApplyDelta(va, delta, l.specBits)
		usedIDB = ok
	}
	correct := predBits == trueBits
	if l.idb != nil {
		l.idb.Train(pc, uint64(va.PageNum()),
			memaddr.IndexDelta(va, pa, l.specBits), usedIDB, correct)
	}
	if correct {
		// The paper labels reversed-prediction fast accesses as IDB hits
		// too ("we also label as IDB hits those fast accesses that use
		// the reversed bypass prediction").
		l.stats.FastIDB++
		res.Latency, res.ArraySlots, res.Fast = lat, 1, true
		return
	}
	res.Latency, res.ArraySlots, res.Extra = slowLat, 2, true
}

// Fill installs a line fetched from the next level.
//
//sipt:hotpath
func (l *L1) Fill(pa memaddr.PAddr, dirty bool) (cache.Victim, bool) {
	return l.cache.Fill(pa, dirty)
}

// Cache exposes the underlying cache for tests and tools.
func (l *L1) Cache() *cache.Cache { return l.cache }
