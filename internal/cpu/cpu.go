// Package cpu provides the cycle-approximate trace-driven core models
// the experiments run on: a 6-wide, 192-entry-ROB out-of-order core and
// a 2-wide in-order core (Tab. II).
//
// The models capture exactly the mechanisms that convert L1 latency and
// SIPT's extra accesses into IPC:
//
//   - dispatch bandwidth (width instructions per cycle);
//   - ROB occupancy: instruction i cannot dispatch until i-ROB retired,
//     so long-latency loads throttle the window (this is what gives the
//     OOO core memory-level parallelism and bounds it);
//   - load-use dependences: on the in-order core the consumer
//     (DepDist instructions after a load) stalls dispatch until the
//     load completes; on the OOO core short-DepDist loads form
//     same-PC chains (pointer chasing: each iteration's load needs the
//     previous one's value for its address);
//   - in-order retirement.
//
// Everything below the core (SIPT L1, TLB, L2/LLC/DRAM, port
// contention) lives behind the MemSystem interface. Core is the only
// implementation of this timing: single-core runs, live or replayed,
// and the quad-core interleave all step it.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sipt/internal/trace"
)

// Config describes a core.
type Config struct {
	Name string
	// Width is the dispatch width in instructions per cycle.
	Width int
	// ROB is the reorder window; for the in-order core it models the
	// small scoreboard that bounds outstanding misses.
	ROB int
	// InOrder enables stall-on-use: a load's consumer blocks dispatch.
	InOrder bool
	// HideLatency is the load-to-use latency, in cycles, the core's
	// scheduler absorbs before a consumer stalls dispatch (speculative
	// wakeup and surrounding ILP). In-order cores hide nothing.
	HideLatency int
	// StallCap bounds which loads exert consumer stalls on an OOO core:
	// latencies above the cap (cache misses) are overlapped by the
	// ROB/MSHR machinery instead, preserving memory-level parallelism.
	// Zero means no consumer stalls at all; ignored when InOrder.
	StallCap int
}

// OOO returns the paper's out-of-order core: 6-wide, 192-entry ROB,
// 3 GHz. The scheduler hides the first cycles of load-to-use latency;
// longer hit latencies leak into dispatch via dependent consumers,
// which is what makes L1 latency matter on real OOO cores.
func OOO() Config {
	return Config{Name: "ooo", Width: 6, ROB: 192, HideLatency: 2, StallCap: 12}
}

// InOrder returns the paper's in-order core: 2-wide, 3 GHz,
// stall-on-use with no latency hiding.
func InOrder() Config { return Config{Name: "inorder", Width: 2, ROB: 32, InOrder: true} }

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("cpu: width = %d", c.Width)
	case c.ROB <= 0:
		return fmt.Errorf("cpu: ROB = %d", c.ROB)
	}
	return nil
}

// MemResult is the hierarchy's answer for one access.
type MemResult struct {
	// Latency is the cycles from issue until load data is available
	// (stores are buffered and do not stall the core).
	Latency int
}

// MemSystem services memory accesses. now is the access's issue cycle;
// implementations account port contention, SIPT outcomes, caches, TLB,
// and DRAM behind this call. The record is passed by pointer purely to
// keep the per-access copy off the hot path; implementations must not
// retain or mutate it.
type MemSystem interface {
	Access(rec *trace.Record, now uint64) MemResult
}

// Result summarises one core run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// chaseDistMax is the DepDist at or below which a load is treated as
// part of a pointer chase (its address depends on the previous load of
// the same PC).
const chaseDistMax = 3

// stallRingSize sizes the consumer-stall ring (consumer instruction
// index -> cycle its operand is ready), above the maximum DepDist.
const stallRingSize = 256

// Core is a single core's timing state. One Core simulates one trace;
// create a fresh Core per run.
type Core struct {
	cfg Config
	mem MemSystem

	dispatchCycle uint64
	slotsUsed     int
	lastRetire    uint64
	retireRing    []uint64
	instr         uint64
	// robIdx == instr % ROB, maintained incrementally: the ROB sizes
	// (192, 32) are not powers of two, and a hardware divide per
	// simulated instruction dominated the dispatch loop.
	robIdx int
	// stallOn caches cfg.InOrder || cfg.StallCap > 0.
	stallOn bool

	// chainDense/chainMap map a load PC to its last completion time (OOO
	// pointer-chase chains). Synthetic traces use a small dense PC range
	// starting at chainBase, served by a slice; anything else (replayed
	// real traces) falls back to the map.
	chainDense []uint64
	chainMap   map[uint64]uint64
	// stallReady implements the in-order stall-on-use ring.
	stallReady [stallRingSize]uint64

	res Result
}

// chainBase is the code region synthetic workloads place memory PCs in
// (workload.Generator's basePC); PCs in [chainBase, chainBase+4*chainDenseSlots)
// take the allocation-free dense path.
const (
	chainBase       = 0x400000
	chainDenseSlots = 1 << 14
)

//sipt:hotpath
func (c *Core) chainGet(pc uint64) uint64 {
	if idx := (pc - chainBase) >> 2; idx < uint64(len(c.chainDense)) {
		return c.chainDense[idx]
	} else if idx < chainDenseSlots {
		return 0
	}
	//siptlint:allow hotalloc: cold fallback, reached only by replayed real traces with PCs outside the dense range
	return c.chainMap[pc]
}

func (c *Core) chainSet(pc, completion uint64) {
	idx := (pc - chainBase) >> 2
	if idx < chainDenseSlots {
		if idx >= uint64(len(c.chainDense)) {
			// Capped at the window: chainGet reads any index below
			// len(chainDense) densely.
			grown := make([]uint64, min((idx+1)*2, chainDenseSlots))
			copy(grown, c.chainDense)
			c.chainDense = grown
		}
		c.chainDense[idx] = completion
		return
	}
	if c.chainMap == nil {
		c.chainMap = make(map[uint64]uint64)
	}
	c.chainMap[pc] = completion
}

// NewCore builds a core over a memory system; it panics on invalid
// configuration.
func NewCore(cfg Config, mem MemSystem) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil {
		panic("cpu: nil MemSystem")
	}
	return &Core{
		cfg:        cfg,
		mem:        mem,
		retireRing: make([]uint64, cfg.ROB),
		stallOn:    cfg.InOrder || cfg.StallCap > 0,
	}
}

// Cycles returns the current cycle (the last retirement time).
func (c *Core) Cycles() uint64 { return c.lastRetire }

// Result returns the run summary so far.
func (c *Core) Result() Result {
	r := c.res
	r.Cycles = c.lastRetire
	return r
}

// retire records an instruction's completion, enforcing in-order
// retirement.
//
//sipt:hotpath
func (c *Core) retire(completion uint64) {
	if completion < c.lastRetire {
		completion = c.lastRetire
	}
	c.retireRing[c.robIdx] = completion
	c.robIdx++
	if c.robIdx == c.cfg.ROB {
		c.robIdx = 0
	}
	c.lastRetire = completion
	c.instr++
	c.res.Instructions++
}

// dispatch dispatches and retires a record's n leading non-memory
// unit-latency instructions, then dispatches the access itself and
// returns its dispatch cycle, honouring width, ROB occupancy and
// consumer stalls; the caller retires the access. Gap instructions are
// the majority of all instructions and touch nothing but the rings, so
// the core state stays in locals for the whole run.
//
//sipt:hotpath
func (c *Core) dispatch(n uint16) uint64 {
	d, u, r := c.dispatchCycle, c.slotsUsed, c.lastRetire
	ri, ins := c.robIdx, c.instr
	ring := c.retireRing
	width, rob := c.cfg.Width, c.cfg.ROB
	for g := uint16(0); ; g++ {
		// ROB: wait for instruction ins-ROB to retire.
		if floor := ring[ri]; floor > d {
			d = floor
			u = 0
		}
		if c.stallOn {
			slot := ins % stallRingSize
			if ready := c.stallReady[slot]; ready != 0 {
				if ready > d {
					d = ready
					u = 0
				}
				c.stallReady[slot] = 0
			}
		}
		at := d
		u++
		if u >= width {
			d++
			u = 0
		}
		if g == n {
			c.dispatchCycle, c.slotsUsed, c.lastRetire = d, u, r
			c.robIdx, c.instr = ri, ins
			c.res.Instructions += uint64(n)
			return at
		}
		completion := at + 1
		if completion < r {
			completion = r
		}
		ring[ri] = completion
		ri++
		if ri == rob {
			ri = 0
		}
		r = completion
		ins++
	}
}

// step simulates one trace record: its leading non-memory instructions
// and the access itself.
//
//sipt:hotpath
func (c *Core) step(rec *trace.Record) {
	at := c.dispatch(rec.Gap)
	if rec.IsStore() {
		c.res.Stores++
		// Stores retire from a write buffer: unit latency for the core;
		// the hierarchy still sees the access now.
		c.mem.Access(rec, at)
		c.retire(at + 1)
		return
	}

	c.res.Loads++
	issue := at
	chase := rec.DepDist > 0 && rec.DepDist <= chaseDistMax
	if chase {
		// Address depends on the previous load of this PC.
		if ready := c.chainGet(rec.PC); ready > issue {
			issue = ready
		}
	}
	mr := c.mem.Access(rec, issue)
	completion := issue + uint64(mr.Latency)
	if chase {
		c.chainSet(rec.PC, completion)
	}
	// Consumer stall: the instruction DepDist later needs the data
	// (DepDist 0 marks a load without a consumer, which stalls nothing).
	// The in-order core stalls for the full latency. The OOO core
	// absorbs HideLatency cycles, and its stall contribution is clamped
	// to StallCap: hit-class latencies leak into dispatch almost fully,
	// while misses beyond the cap are overlapped by the ROB (their
	// consumers pay only the bounded scheduler-replay cost).
	stallAt := completion
	apply := c.cfg.InOrder
	if !apply && c.cfg.StallCap > 0 {
		apply = true
		exposed := mr.Latency
		if exposed > c.cfg.StallCap {
			exposed = c.cfg.StallCap
		}
		exposed -= c.cfg.HideLatency
		if exposed <= 0 {
			apply = false
		} else {
			stallAt = issue + uint64(exposed)
		}
	}
	if apply && rec.DepDist > 0 {
		slot := (c.instr + uint64(rec.DepDist)) % stallRingSize
		if stallAt > c.stallReady[slot] {
			c.stallReady[slot] = stallAt
		}
	}
	c.retire(completion)
}

// CtxCheckInterval is how many records the run loops execute between
// context polls. Powers of two keep the check a single mask-and-branch;
// at a few hundred ns per record, 4096 records bounds cancellation
// latency to roughly a millisecond without measurable overhead in the
// hot loop.
const CtxCheckInterval = 4096

// Run consumes the trace to EOF and returns the result (bound the
// length with trace.Limit). Errors other than io.EOF from the reader
// are returned.
//
// The context is polled every CtxCheckInterval records: a cancelled or
// expired ctx stops the run promptly and returns ctx.Err() (wrapped
// results so far are still valid partial state via c.Result()). A nil
// ctx runs to completion.
//
//sipt:hotpath
func (c *Core) Run(ctx context.Context, r trace.Reader) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rec trace.Record
	for n := uint64(0); ; n++ {
		if n&(CtxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return c.Result(), err
			}
		}
		if err := r.NextInto(&rec); err != nil {
			return c.end(err)
		}
		c.step(&rec)
	}
}

// end finishes a run on the reader's error: io.EOF is a clean end of
// trace, anything else a failure.
func (c *Core) end(err error) (Result, error) {
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return c.Result(), err
}

// StepPtr simulates one record, for callers that drive the core
// themselves: the quad-core interleave.
// The core does not retain or mutate *rec (step obeys the MemSystem
// contract).
//
//sipt:hotpath
func (c *Core) StepPtr(rec *trace.Record) { c.step(rec) }
