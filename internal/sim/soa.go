// Structure-of-arrays fused-sweep state.
//
// RunConfigs drives N independent single-core systems over one decoded
// trace. Rather than N separate heaps of cache/TLB/predictor objects,
// all lanes' hot machine state is carved from contiguous same-field
// slabs indexed by config lane: cache line metadata and MRU
// way-predictor state (cache.Arena), TLB entries (tlb.Arena),
// perceptron weight tables ([]predictor.Perceptron), and the
// hierarchy/engine/stats headers ([]Hierarchy, []core.L1, ...).
//
// The sweep runs lane-major: each lane makes one whole-trace pass,
// decoding records inline from the buffer's packed words and stepping
// a cpu.Core (the one core timing model) over its own hierarchy, so
// the lane's slab segment stays hot in the host cache for the pass.
//
// Lane-major order is bit-identical to a record-major interleave
// because fused lanes share nothing: each lane owns its LLC, DRAM and
// energy account (they model independent single-core systems), so its
// state evolution depends only on the record stream and its own
// configuration. internal/exp's fused_test and the golden tables gate
// this equivalence, as does TestRunConfigsMatchesSoloRuns.
package sim

import (
	"context"

	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/predictor"
	"sipt/internal/replay"
	"sipt/internal/tlb"
	"sipt/internal/trace"
)

// soaSweep is the slab-backed machine state of one fused sweep. Slices
// are lane-indexed unless noted.
type soaSweep struct {
	cfgs []Config

	hs        []Hierarchy
	llcs      []sharedLLC
	l1s       []core.L1
	tlbs      []tlb.TLB
	drams     []dram.DRAM
	accts     []energy.Account
	l1Caches  []cache.Cache
	llcCaches []cache.Cache
	l2s       []cache.Cache // one per three-level lane, in lane order
}

// newSoaSweep builds every lane's machinery over shared slabs. It polls
// ctx per lane (construction is the expensive part of huge sweeps) and
// validates each config, like the AoS path did.
func newSoaSweep(ctx context.Context, cfgs []Config, seed int64) (*soaSweep, error) {
	n := len(cfgs)
	s := &soaSweep{cfgs: cfgs}

	// First pass: validate, size the slabs.
	l1Cfgs := make([]core.Config, n)
	arenaCfgs := make([]cache.Config, 0, 3*n)
	nL2, nPerc := 0, 0
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		l1Cfgs[i] = cfg.l1Config(seed)
		arenaCfgs = append(arenaCfgs, l1Cfgs[i].Cache)
		if cfg.threeLevel() {
			arenaCfgs = append(arenaCfgs, l2Config())
			nL2++
		}
		arenaCfgs = append(arenaCfgs, cfg.llcConfig())
		if core.NeedsBypass(cfg.Mode) {
			nPerc++
		}
	}

	arena := cache.NewArena(arenaCfgs...)
	tarena := tlb.NewArena(n, tlb.Default())
	percs := make([]predictor.Perceptron, nPerc)
	s.hs = make([]Hierarchy, n)
	s.llcs = make([]sharedLLC, n)
	s.l1s = make([]core.L1, n)
	s.tlbs = make([]tlb.TLB, n)
	s.drams = make([]dram.DRAM, n)
	s.accts = make([]energy.Account, n)
	s.l1Caches = make([]cache.Cache, n)
	s.llcCaches = make([]cache.Cache, n)
	s.l2s = make([]cache.Cache, nL2)

	// Second pass: carve, in lane order.
	l2i, pi := 0, 0
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arena.Init(&s.l1Caches[i], l1Cfgs[i].Cache)
		var l2 *cache.Cache
		if cfg.threeLevel() {
			l2 = arena.Init(&s.l2s[l2i], l2Config())
			l2i++
		}
		arena.Init(&s.llcCaches[i], cfg.llcConfig())
		s.llcs[i] = sharedLLC{cache: &s.llcCaches[i], bankBusy: 4}
		tarena.Init(&s.tlbs[i])

		var bypass *predictor.Perceptron
		if core.NeedsBypass(cfg.Mode) {
			bypass = percs[pi].Init()
			pi++
		}
		var idb *predictor.IDB
		if specBits := l1Cfgs[i].Cache.SpecBits(); core.NeedsIDB(cfg.Mode, specBits) {
			idb = predictor.NewIDB(specBits, cfg.NoContig, seed)
		}
		s.l1s[i].InitOver(l1Cfgs[i], &s.l1Caches[i], bypass, idb)

		s.drams[i] = *dram.New(dramConfig())
		s.accts[i] = *energy.New(cfg.energyParams())
		s.hs[i] = Hierarchy{
			cfg:    cfg,
			l1:     &s.l1s[i],
			tlb:    &s.tlbs[i],
			l2:     l2,
			llc:    &s.llcs[i],
			mem:    &s.drams[i],
			acct:   &s.accts[i],
			predOn: core.NeedsBypass(cfg.Mode),
		}
	}
	return s, nil
}

// runLane makes one lane's whole-trace pass: each packed record is
// decoded in place and stepped through a cpu.Core over the lane's
// hierarchy, which is the concrete *Hierarchy carved from the slabs.
//
//sipt:hotpath
func (s *soaSweep) runLane(ctx context.Context, lane int, words []uint64) (cpu.Result, error) {
	c := cpu.NewCore(s.cfgs[lane].Core, &s.hs[lane])
	var rec trace.Record
	for w, n := 0, 0; w+1 < len(words); w, n = w+2, n+1 {
		if n&(cpu.CtxCheckInterval-1) == 0 {
			// Raw ctx.Err(), wrapped by RunConfigs outside the hot path.
			if err := ctx.Err(); err != nil {
				return cpu.Result{}, err
			}
		}
		replay.UnpackRecord(words[w], words[w+1], &rec)
		c.StepPtr(&rec)
	}
	return c.Result(), nil
}
