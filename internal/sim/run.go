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

// CheckInvariants validates cross-module accounting.
func (s Stats) CheckInvariants() error {
	if err := s.L1.CheckInvariants(); err != nil {
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
// cpu.CtxCheckInterval steps.
func RunMix(ctx context.Context, mix workload.Mix, cfg Config, sc vm.Scenario, seed int64, recordsPerCore uint64) (MixStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Cores = 4
	if err := cfg.Validate(); err != nil {
		return MixStats{}, err
	}
	if recordsPerCore == 0 {
		recordsPerCore = DefaultRecords
	}

	profs := make([]workload.Profile, 4)
	for i, name := range mix.Apps {
		p, err := workload.Lookup(name)
		if err != nil {
			return MixStats{}, err
		}
		profs[i] = p
	}
	sys := NewSystem(sc, seed, profs...)

	var gens [4]*workload.Generator
	for i := range gens {
		gen, err := workload.NewGenerator(profs[i], sys, seed+int64(i), recordsPerCore)
		if err != nil {
			return MixStats{}, err
		}
		gens[i] = gen
	}
	acct := energy.New(cfg.energyParams())
	llc := newSharedLLC(cfg.llcConfig())
	mem := dram.New(dramConfig())

	type lane struct {
		gen      *workload.Generator
		h        *Hierarchy
		core     *cpu.Core
		consumed uint64
		done     bool
		snapshot cpu.Result
	}
	lanes := make([]*lane, 4)
	for i := range lanes {
		h := newHierarchy(cfg, seed+int64(i), llc, mem, acct)
		lanes[i] = &lane{gen: gens[i], h: h, core: cpu.NewCore(cfg.Core, h)}
	}

	// Interleave: always step the core that is earliest in simulated
	// time, so shared-structure contention is seen in rough time order.
	// Finished cores stay in the rotation: their trace is recycled
	// (generator restarted) so they keep generating LLC/DRAM contention
	// for the stragglers, per the paper's methodology; only their IPC
	// snapshot is frozen at the end of their own first pass.
	remaining := 4
	var steps uint64
	var rec trace.Record
	for remaining > 0 {
		if steps&(cpu.CtxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return MixStats{}, fmt.Errorf("sim: mix %s: %w", mix.Name, err)
			}
		}
		steps++
		li := -1
		var minCycles uint64
		for i, l := range lanes {
			if li == -1 || l.core.Cycles() < minCycles {
				li = i
				minCycles = l.core.Cycles()
			}
		}
		l := lanes[li]
		if err := l.gen.NextInto(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				return MixStats{}, fmt.Errorf("sim: mix %s core %d: %w", mix.Name, li, err)
			}
			if !l.done {
				// First pass complete: snapshot this core's result.
				l.snapshot = l.core.Result()
				l.done = true
				remaining--
				if remaining == 0 {
					break
				}
			}
			// Recycle and keep stepping: the generator restarts (same
			// program, fresh mapping, as rerunning the binary would).
			l.gen.Reset()
			continue
		}
		l.core.StepPtr(&rec)
		l.consumed++
	}

	ms := MixStats{Config: cfg, Mix: mix}
	for i, l := range lanes {
		ms.PerCore[i] = collect(cfg, mix.Apps[i], l.snapshot, l.h, acct)
		ms.Consumed[i] = l.consumed
		if l.snapshot.Cycles > ms.Cycles {
			ms.Cycles = l.snapshot.Cycles
		}
	}
	ms.Energy = acct.Finish(ms.Cycles)
	for i := range ms.PerCore {
		ms.PerCore[i].Energy = ms.Energy
		if err := ms.PerCore[i].L1.CheckInvariants(); err != nil {
			return ms, err
		}
	}
	return ms, nil
}
