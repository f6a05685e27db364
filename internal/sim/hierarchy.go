package sim

import (
	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/memaddr"
	"sipt/internal/tlb"
	"sipt/internal/trace"
)

// sharedLLC is the last-level cache plus its bank contention model;
// in multicore runs every hierarchy points at the same instance.
type sharedLLC struct {
	cache *cache.Cache
	// bankFree models 8 line-interleaved banks, each occupied for
	// bankBusy cycles per request.
	bankFree [8]uint64
	bankBusy uint64
}

func newSharedLLC(cfg cache.Config) *sharedLLC {
	return &sharedLLC{cache: cache.New(cfg), bankBusy: 4}
}

// access performs a demand access at the given cycle and returns its
// latency including bank queueing.
//
//sipt:hotpath
func (s *sharedLLC) access(pa memaddr.PAddr, write bool, now uint64) (hit bool, lat int) {
	bank := (uint64(pa) >> memaddr.LineShift) & 7
	start := now
	if s.bankFree[bank] > start {
		start = s.bankFree[bank]
	}
	s.bankFree[bank] = start + s.bankBusy
	r := s.cache.Access(pa, write)
	return r.Hit, int(start-now) + s.cache.Latency()
}

// PathStats breaks a core's memory time down by hierarchy level: how
// many demand accesses reached each level and how many cycles that
// level (including queueing) contributed.
type PathStats struct {
	L2Accesses  uint64
	L2Cycles    uint64
	LLCAccesses uint64
	LLCCycles   uint64
	DRAMReads   uint64
	DRAMCycles  uint64
}

// Hierarchy is one core's memory system: private SIPT L1 and TLB,
// optional private L2, shared LLC and DRAM. It implements
// cpu.MemSystem.
type Hierarchy struct {
	cfg  Config
	l1   *core.L1
	tlb  *tlb.TLB
	l2   *cache.Cache // nil in the two-level (in-order) hierarchy
	llc  *sharedLLC
	mem  *dram.DRAM
	acct *energy.Account

	// portFree models the L1's single read/write port; SIPT's extra
	// accesses occupy extra slots here, which is how misspeculation
	// contends with demand traffic ("every slow access wastes energy
	// and contends for the L1 cache port").
	portFree uint64

	// predOn caches core.NeedsBypass(cfg.Mode) for the per-record
	// predictor-energy branch.
	predOn bool

	path PathStats
}

// newHierarchy wires one core's private structures to the shared LLC,
// DRAM and energy accountant.
func newHierarchy(cfg Config, seed int64, llc *sharedLLC, mem *dram.DRAM, acct *energy.Account) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		l1:   core.New(cfg.l1Config(seed)),
		tlb:  tlb.New(tlb.Default()),
		llc:  llc,
		mem:  mem,
		acct: acct,
	}
	if cfg.threeLevel() {
		h.l2 = cache.New(l2Config())
	}
	h.predOn = core.NeedsBypass(cfg.Mode)
	return h
}

// L1 exposes the SIPT engine for stats collection.
func (h *Hierarchy) L1() *core.L1 { return h.l1 }

// TLB exposes the TLB for stats collection.
func (h *Hierarchy) TLB() *tlb.TLB { return h.tlb }

// PathStats returns the per-level miss-path breakdown.
func (h *Hierarchy) PathStats() PathStats { return h.path }

// L2Stats returns the private L2 counters (zero value when absent).
func (h *Hierarchy) L2Stats() cache.Stats {
	if h.l2 == nil {
		return cache.Stats{}
	}
	return h.l2.Stats()
}

// Access implements cpu.MemSystem: it runs the SIPT L1 flow, the TLB,
// and the miss path, returning the load-to-use latency.
//
//sipt:hotpath
func (h *Hierarchy) Access(rec *trace.Record, now uint64) cpu.MemResult {
	store := rec.IsStore()
	var r core.Result
	h.l1.AccessInto(&r, rec.PC, rec.VA, rec.PA, store)

	// L1 port: each array read occupies one slot.
	start := now
	if h.portFree > start {
		start = h.portFree
	}
	h.portFree = start + uint64(r.ArraySlots)
	lat := int(start-now) + r.Latency

	// Translation runs in parallel with the (speculative) array read;
	// only misses add latency beyond what the L1 path already includes.
	tr := h.tlb.Translate(rec.VA, rec.Huge())
	lat += tr.Penalty

	// Energy: demand access (way-predicted hits cost 1/ways) plus any
	// wasted SIPT array read at full cost.
	if r.WayPredicted && r.WayHit {
		h.acct.AddWayPredictedL1(1)
	} else {
		h.acct.AddAccesses(energy.L1, 1)
	}
	if r.ArraySlots > 1 {
		h.acct.AddAccesses(energy.L1, uint64(r.ArraySlots-1))
	}
	if h.predOn {
		h.acct.AddPredictorOps(1)
	}

	if !r.Hit {
		lat += h.missPath(rec.PA, store, now+uint64(lat))
	}
	return cpu.MemResult{Latency: lat}
}

// missPath fetches the line from L2/LLC/DRAM, fills upward, and
// returns the additional latency beyond the L1 pipeline.
//
//sipt:hotpath
func (h *Hierarchy) missPath(pa memaddr.PAddr, store bool, at uint64) int {
	lat := 0
	if h.l2 != nil {
		h.acct.AddAccesses(energy.L2, 1)
		l2r := h.l2.Access(pa, false)
		l2Lat := h.l2.Latency()
		lat += l2Lat
		h.path.L2Accesses++
		h.path.L2Cycles += uint64(l2Lat)
		if !l2r.Hit {
			lat += h.llcFetch(pa, at+uint64(lat))
			if v, ev := h.l2.Fill(pa, false); ev && v.Dirty {
				// L2 victim written back into the LLC.
				h.acct.AddAccesses(energy.LLC, 1)
				h.llc.access(v.PA, true, at+uint64(lat))
				h.llc.cache.Fill(v.PA, true)
			}
		}
	} else {
		lat += h.llcFetch(pa, at)
	}
	if v, ev := h.l1.Fill(pa, store); ev && v.Dirty {
		// L1 victim written back to the next level (off the critical
		// path: energy and state only).
		if h.l2 != nil {
			h.acct.AddAccesses(energy.L2, 1)
			h.l2.Fill(v.PA, true)
		} else {
			h.acct.AddAccesses(energy.LLC, 1)
			h.llc.access(v.PA, true, at+uint64(lat))
			h.llc.cache.Fill(v.PA, true)
		}
	}
	return lat
}

// llcFetch reads the line from the shared LLC, going to DRAM on a miss.
//
//sipt:hotpath
func (h *Hierarchy) llcFetch(pa memaddr.PAddr, at uint64) int {
	h.acct.AddAccesses(energy.LLC, 1)
	hit, lat := h.llc.access(pa, false, at)
	h.path.LLCAccesses++
	h.path.LLCCycles += uint64(lat)
	if !hit {
		d := h.mem.Access(pa, false, at+uint64(lat))
		h.path.DRAMReads++
		h.path.DRAMCycles += uint64(d)
		lat += d
		if v, ev := h.llc.cache.Fill(pa, false); ev && v.Dirty {
			// Dirty LLC victim goes to DRAM (not on the critical path).
			h.mem.Access(v.PA, true, at+uint64(lat))
		}
	}
	return lat
}
