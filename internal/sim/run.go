package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/predictor"
	"sipt/internal/tlb"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// Stats is the full result of one simulation run.
type Stats struct {
	Config Config
	App    string

	Core   cpu.Result
	L1     core.Stats
	L1C    cache.Stats
	L2     cache.Stats
	TLB    tlb.Stats
	Path   PathStats
	Bypass predictor.PerceptronStats
	IDB    predictor.IDBStats
	Energy energy.Breakdown
}

// IPC returns the run's instructions per cycle.
func (s Stats) IPC() float64 { return s.Core.IPC() }

// CheckInvariants validates cross-module accounting: the identities
// between the hierarchy's levels (checkHierarchy), the L1 against the
// core's loads and stores, and a non-empty run's energy.
func (s Stats) CheckInvariants() error {
	if err := s.checkHierarchy(); err != nil {
		return err
	}
	if s.L1.Accesses != s.Core.Loads+s.Core.Stores {
		return fmt.Errorf("sim: L1 accesses %d != loads %d + stores %d",
			s.L1.Accesses, s.Core.Loads, s.Core.Stores)
	}
	if s.Energy.Total() <= 0 && s.Core.Instructions > 0 {
		return fmt.Errorf("sim: non-positive energy for a non-empty run")
	}
	return nil
}

// checkHierarchy validates the accounting identities that one core's
// Hierarchy guarantees by construction: the L1's own identities, every
// L1 access translated once, every L1 miss filled once and sent one
// level down, and DRAM read only on an LLC miss. It reads neither Core
// nor Energy, so it also holds for a mix core, whose Core is its
// first-pass snapshot while its hierarchy counters include recycled
// passes.
func (s Stats) checkHierarchy() error {
	if err := s.L1.CheckInvariants(); err != nil {
		return err
	}
	t := s.TLB
	if t.Lookups != s.L1.Accesses || t.Lookups != t.L1Hits+t.L2Hits+t.Walks {
		return fmt.Errorf("sim: TLB lookups %d != L1 accesses %d or != L1 hits %d + L2 hits %d + walks %d",
			t.Lookups, s.L1.Accesses, t.L1Hits, t.L2Hits, t.Walks)
	}
	if s.L1.Misses != s.L1C.Misses || s.L1C.Misses != s.L1C.Fills {
		return fmt.Errorf("sim: L1 misses %d, L1 array misses %d and L1 fills %d differ",
			s.L1.Misses, s.L1C.Misses, s.L1C.Fills)
	}
	if s.Config.threeLevel() {
		if s.L1C.Misses != s.Path.L2Accesses || s.Path.L2Accesses != s.L2.Accesses {
			return fmt.Errorf("sim: L1 misses %d, L2 path accesses %d and L2 accesses %d differ",
				s.L1C.Misses, s.Path.L2Accesses, s.L2.Accesses)
		}
		if s.L2.Misses != s.Path.LLCAccesses {
			return fmt.Errorf("sim: L2 misses %d != LLC accesses %d", s.L2.Misses, s.Path.LLCAccesses)
		}
	} else if s.L1C.Misses != s.Path.LLCAccesses {
		return fmt.Errorf("sim: L1 misses %d != LLC accesses %d (no L2)", s.L1C.Misses, s.Path.LLCAccesses)
	}
	if s.Path.DRAMReads > s.Path.LLCAccesses {
		return fmt.Errorf("sim: DRAM reads %d > LLC accesses %d", s.Path.DRAMReads, s.Path.LLCAccesses)
	}
	return nil
}

// DefaultRecords is the per-app trace length when a direct sim caller
// (RunApp, RunMix, Materialize) passes 0, and the default of
// `siptsim -records`; the experiment harness uses its own
// exp.DefaultRecords (300 000) instead. Both are scaled down from the
// paper's 500 M-instruction SimPoints (see DESIGN.md "Known
// deviations").
const DefaultRecords = 400_000

// PhysFrames sizes physical memory for a set of profiles: enough for
// every footprint plus fragmentation headroom.
func PhysFrames(profs ...workload.Profile) uint64 {
	var need uint64
	for _, p := range profs {
		need += workload.FramesNeeded(p)
	}
	frames := need*2 + 16384
	return frames
}

// NewSystem prepares physical memory for the given profiles under a
// scenario, deterministically from seed.
func NewSystem(sc vm.Scenario, seed int64, profs ...workload.Profile) *vm.System {
	var need uint64
	for _, p := range profs {
		need += workload.FramesNeeded(p)
	}
	return vm.NewSystem(sc, PhysFrames(profs...), need+need/4, seed)
}

// RunApp simulates one workload on one system configuration, using a
// fresh physical memory in the given scenario. records bounds the trace
// length (0 means DefaultRecords). The run is deterministic in
// (profile, cfg, scenario, seed). Cancellation or deadline expiry of
// ctx stops the run promptly (within cpu.CtxCheckInterval records) and
// returns an error wrapping ctx.Err(); nil ctx runs to completion.
func RunApp(ctx context.Context, prof workload.Profile, cfg Config, sc vm.Scenario, seed int64, records uint64) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if records == 0 {
		records = DefaultRecords
	}
	sys := NewSystem(sc, seed, prof)
	gen, err := workload.NewGenerator(prof, sys, seed, records)
	if err != nil {
		return Stats{}, err
	}
	return runReader(ctx, prof.Name, gen, cfg, seed)
}

// RunTrace simulates a pre-materialised trace (used by tools replaying
// trace files). Context semantics match RunApp.
func RunTrace(ctx context.Context, name string, r trace.Reader, cfg Config, seed int64) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	return runReader(ctx, name, r, cfg, seed)
}

// runReader wires up one single-core system and drains the reader.
func runReader(ctx context.Context, name string, r trace.Reader, cfg Config, seed int64) (Stats, error) {
	acct := energy.New(cfg.energyParams())
	llc := newSharedLLC(cfg.llcConfig())
	mem := dram.New(dramConfig())
	h := newHierarchy(cfg, seed, llc, mem, acct)
	c := cpu.NewCore(cfg.Core, h)

	res, err := c.Run(ctx, r)
	if err != nil {
		return Stats{}, fmt.Errorf("sim: running %s on %s: %w", name, cfg.Label(), err)
	}
	st := collect(cfg, name, res, h, acct)
	if err := st.CheckInvariants(); err != nil {
		return st, err
	}
	return st, nil
}

func collect(cfg Config, name string, res cpu.Result, h *Hierarchy, acct *energy.Account) Stats {
	return Stats{
		Config: cfg,
		App:    name,
		Core:   res,
		L1:     h.L1().Stats(),
		L1C:    h.L1().CacheStats(),
		L2:     h.L2Stats(),
		TLB:    h.TLB().Stats(),
		Path:   h.PathStats(),
		Bypass: h.L1().BypassStats(),
		IDB:    h.L1().IDBStats(),
		Energy: acct.Finish(res.Cycles),
	}
}

// MixStats is the result of a quad-core multiprogrammed run.
type MixStats struct {
	Config  Config
	Mix     workload.Mix
	PerCore [4]Stats
	// Consumed counts the records each core actually executed,
	// including recycled passes after its IPC snapshot; the excess over
	// the per-core trace length is the contention traffic finished cores
	// kept generating for the stragglers.
	Consumed [4]uint64
	// Cycles is the longest core's cycle count (used for shared static
	// energy).
	Cycles uint64
	Energy energy.Breakdown
}

// SumIPC returns the sum-of-IPC throughput metric the paper reports for
// multicore runs.
func (m MixStats) SumIPC() float64 {
	var s float64
	for _, c := range m.PerCore {
		s += c.IPC()
	}
	return s
}

// ExtraAccessRate returns wasted L1 reads per demand access over all
// cores.
func (m MixStats) ExtraAccessRate() float64 {
	var extra, acc uint64
	for _, c := range m.PerCore {
		extra += c.L1.Extra
		acc += c.L1.Accesses
	}
	if acc == 0 {
		return 0
	}
	return float64(extra) / float64(acc)
}

// RunMix simulates a Tab. III mix on a quad-core system: four cores
// with private L1/L2/TLB share the (4x) LLC and DRAM. Per the paper,
// traces are recycled until the last core completes its initial trace;
// each core's IPC is snapshotted when its own first pass completes.
// Context semantics match RunApp: the interleave loop polls ctx every
// cpu.CtxCheckInterval steps. RunMix is RunMixConfigs with one config.
func RunMix(ctx context.Context, mix workload.Mix, cfg Config, sc vm.Scenario, seed int64, recordsPerCore uint64) (MixStats, error) {
	sts, err := RunMixConfigs(ctx, mix, []Config{cfg}, sc, seed, recordsPerCore)
	if err != nil {
		return MixStats{}, err
	}
	return sts[0], nil
}

// RunMixConfigs runs one mix under each config in turn, each on its own
// fresh physical memory, exactly as a RunMix per config would. Each
// core's trace is drawn once: the first config records the virtual half
// of every core's first pass as a workload.Program while running it,
// and every recycled pass and every later config replays those
// programs, translating each VA live against that run's own buddy
// allocator so every frame matches a fresh draw. The programs are
// dropped when the call returns.
func RunMixConfigs(ctx context.Context, mix workload.Mix, cfgs []Config, sc vm.Scenario, seed int64, recordsPerCore uint64) ([]MixStats, error) {
	var profs [4]workload.Profile
	for i, name := range mix.Apps {
		p, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	return runMixConfigs(ctx, mix, profs, cfgs, sc, seed, recordsPerCore)
}

// runMixConfigs is RunMixConfigs over explicit profiles (tests shrink
// footprints and churn periods through it).
func runMixConfigs(ctx context.Context, mix workload.Mix, profs [4]workload.Profile, cfgs []Config, sc vm.Scenario, seed int64, recordsPerCore uint64) ([]MixStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfgs, err := quadConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	if recordsPerCore == 0 {
		recordsPerCore = DefaultRecords
	}
	var progs [4]*workload.Program
	out := make([]MixStats, len(cfgs))
	for k, cfg := range cfgs {
		ms, err := runMix(ctx, mix, profs, cfg, sc, seed, recordsPerCore, &progs)
		if err != nil {
			return nil, err
		}
		out[k] = ms
	}
	return out, nil
}

// quadConfigs returns quad-core copies of cfgs, validated.
func quadConfigs(cfgs []Config) ([]Config, error) {
	out := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Cores = 4
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// mixLane is one core of a quad-core mix.
type mixLane struct {
	gen      *workload.Generator
	h        *Hierarchy
	core     *cpu.Core
	consumed uint64
	done     bool
	snapshot cpu.Result
}

// runMix runs one config of a mix. Cores with a program in progs replay
// it; the others record one, which is stored back into progs once their
// first pass completes.
func runMix(ctx context.Context, mix workload.Mix, profs [4]workload.Profile, cfg Config, sc vm.Scenario, seed int64, recordsPerCore uint64, progs *[4]*workload.Program) (MixStats, error) {
	sys := NewSystem(sc, seed, profs[:]...)
	var lanes [4]mixLane
	for i := range lanes {
		var gen *workload.Generator
		var err error
		if progs[i] != nil {
			gen, err = progs[i].Replay(sys)
		} else {
			gen, err = workload.Record(profs[i], sys, seed+int64(i), recordsPerCore)
		}
		if err != nil {
			return MixStats{}, err
		}
		lanes[i].gen = gen
	}
	acct := energy.New(cfg.energyParams())
	llc := newSharedLLC(cfg.llcConfig())
	mem := dram.New(dramConfig())
	for i := range lanes {
		lanes[i].h = newHierarchy(cfg, seed+int64(i), llc, mem, acct)
		lanes[i].core = cpu.NewCore(cfg.Core, lanes[i].h)
	}

	if li, err := interleave(ctx, &lanes); err != nil {
		if li < 0 {
			return MixStats{}, fmt.Errorf("sim: mix %s: %w", mix.Name, err)
		}
		return MixStats{}, fmt.Errorf("sim: mix %s core %d: %w", mix.Name, li, err)
	}

	ms := MixStats{Config: cfg, Mix: mix}
	for i := range lanes {
		l := &lanes[i]
		if progs[i] == nil {
			progs[i] = l.gen.Program()
		}
		ms.PerCore[i] = collect(cfg, mix.Apps[i], l.snapshot, l.h, acct)
		ms.Consumed[i] = l.consumed
		if l.snapshot.Cycles > ms.Cycles {
			ms.Cycles = l.snapshot.Cycles
		}
	}
	ms.Energy = acct.Finish(ms.Cycles)
	for i := range ms.PerCore {
		ms.PerCore[i].Energy = ms.Energy
		if err := ms.PerCore[i].checkHierarchy(); err != nil {
			return ms, fmt.Errorf("sim: mix %s core %d: %w", mix.Name, i, err)
		}
	}
	return ms, nil
}

// interleave runs the mix's cores until each has finished its first
// pass. It always steps the core that is earliest in simulated time
// (ties to the lower index), so shared-structure contention is seen in
// rough time order. Finished cores stay in the rotation: their trace is
// recycled (generator reset) so they keep generating LLC/DRAM
// contention for the stragglers, per the paper's methodology; only
// their IPC snapshot is frozen at the end of their own first pass.
//
// The chosen core keeps stepping while it stays strictly earlier than
// every lower-index core and no later than every higher-index one —
// exactly while the argmin scan would pick it again, since no other
// core's Cycles changes meanwhile and Cycles never decreases — so the
// step order is the scan's, with one scan per run of steps. ctx is
// polled every cpu.CtxCheckInterval steps. On error it returns the
// failing core's index, or -1 for a context error.
//
//sipt:hotpath
func interleave(ctx context.Context, lanes *[4]mixLane) (int, error) {
	remaining := len(lanes)
	var steps uint64
	var rec trace.Record
	for {
		li := 0
		for i := 1; i < len(lanes); i++ {
			if lanes[i].core.Cycles() < lanes[li].core.Cycles() {
				li = i
			}
		}
		// The chosen core runs while its Cycles stays < lo (the earliest
		// lower-index core) and <= hi (the earliest higher-index core).
		lo, hi := ^uint64(0), ^uint64(0)
		for i := range lanes {
			c := lanes[i].core.Cycles()
			if i < li && c < lo {
				lo = c
			} else if i > li && c < hi {
				hi = c
			}
		}
		l := &lanes[li]
		for {
			if steps&(cpu.CtxCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return -1, err
				}
			}
			steps++
			if err := l.gen.NextInto(&rec); err != nil {
				if !errors.Is(err, io.EOF) {
					return li, err
				}
				if !l.done {
					// First pass complete: snapshot this core's result.
					l.snapshot = l.core.Result()
					l.done = true
					remaining--
					if remaining == 0 {
						return 0, nil
					}
				}
				// Recycle and keep stepping: the generator restarts (same
				// program, fresh mapping, as rerunning the binary would).
				l.gen.Reset()
				continue
			}
			l.core.StepPtr(&rec)
			l.consumed++
			if c := l.core.Cycles(); c >= lo || c > hi {
				break
			}
		}
	}
}
