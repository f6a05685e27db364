package cpu

import (
	"context"
	"testing"

	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// refCore is a deliberately plain reference model of Core's timing: one
// loop iteration per instruction, full per-instruction history slices
// where Core keeps rings, a map for every pointer-chase chain, no gap
// fusion and no incremental ROB index. It is slow and obvious on
// purpose; FuzzCoreMatchesReference requires Core to agree with it on
// every access's issue cycle and on the final Result.
type refCore struct {
	cfg Config
	mem MemSystem

	cycle     uint64 // dispatch cycle of the next instruction
	slotsUsed int    // instructions already dispatched in cycle
	// dispatched[i] and retired[i] are instruction i's dispatch and
	// retire cycles. ready[i] is the cycle the load data instruction i
	// consumes arrives (0 = it consumes no load).
	dispatched, retired, ready []uint64
	// chains maps a load PC to its last chasing load's completion.
	chains map[uint64]uint64
	res    Result
}

func newRefCore(cfg Config, mem MemSystem) *refCore {
	return &refCore{cfg: cfg, mem: mem, chains: make(map[uint64]uint64)}
}

// dispatch dispatches the next instruction and returns its cycle.
func (c *refCore) dispatch() uint64 {
	i := len(c.dispatched)
	// The reorder window: instruction i waits for i-ROB to retire.
	if i >= c.cfg.ROB && c.retired[i-c.cfg.ROB] > c.cycle {
		c.cycle = c.retired[i-c.cfg.ROB]
		c.slotsUsed = 0
	}
	// A consumer waits for its load's data.
	if i < len(c.ready) && c.ready[i] > c.cycle {
		c.cycle = c.ready[i]
		c.slotsUsed = 0
	}
	at := c.cycle
	c.dispatched = append(c.dispatched, at)
	c.slotsUsed++
	if c.slotsUsed == c.cfg.Width {
		c.cycle++
		c.slotsUsed = 0
	}
	return at
}

// retire retires the last dispatched instruction, in program order.
func (c *refCore) retire(completion uint64) {
	if n := len(c.retired); n > 0 && c.retired[n-1] > completion {
		completion = c.retired[n-1]
	}
	c.retired = append(c.retired, completion)
	c.res.Instructions++
}

// step runs one record: Gap unit-latency instructions, then the access.
func (c *refCore) step(rec *trace.Record) {
	for g := 0; g < int(rec.Gap); g++ {
		c.retire(c.dispatch() + 1)
	}
	i := len(c.dispatched)
	at := c.dispatch()
	if rec.IsStore() {
		// Stores retire from a write buffer after one cycle.
		c.res.Stores++
		c.mem.Access(rec, at)
		c.retire(at + 1)
		return
	}
	c.res.Loads++
	issue := at
	chase := rec.DepDist >= 1 && rec.DepDist <= chaseDistMax
	if chase && c.chains[rec.PC] > issue {
		issue = c.chains[rec.PC]
	}
	lat := c.mem.Access(rec, issue).Latency
	completion := issue + uint64(lat)
	if chase {
		c.chains[rec.PC] = completion
	}

	// The consumer, DepDist instructions on, waits for the data: fully
	// on the in-order core; on the OOO core for the latency clamped to
	// StallCap minus the HideLatency the scheduler absorbs.
	if rec.DepDist > 0 {
		wait, stalls := completion, c.cfg.InOrder
		if !c.cfg.InOrder && c.cfg.StallCap > 0 {
			if exposed := min(lat, c.cfg.StallCap) - c.cfg.HideLatency; exposed > 0 {
				wait, stalls = issue+uint64(exposed), true
			}
		}
		if stalls {
			consumer := i + int(rec.DepDist)
			for len(c.ready) <= consumer {
				c.ready = append(c.ready, 0)
			}
			c.ready[consumer] = max(c.ready[consumer], wait)
		}
	}
	c.retire(completion)
}

func (c *refCore) result() Result {
	r := c.res
	if n := len(c.retired); n > 0 {
		r.Cycles = c.retired[n-1]
	}
	return r
}

// scriptedMem answers the k-th access with lats[k] and logs every
// access's issue cycle.
type scriptedMem struct {
	lats   []int
	issues []uint64
}

func (m *scriptedMem) Access(_ *trace.Record, now uint64) MemResult {
	lat := m.lats[len(m.issues)]
	m.issues = append(m.issues, now)
	return MemResult{Latency: lat}
}

// fuzzRecordBytes is the fuzz input's encoding of one record plus the
// latency its access sees:
//
//	[0] gap (mod 65)      [1] DepDist          [2] bit 0 store, rest PC region
//	[3:5] PC word index   [5] access latency
const fuzzRecordBytes = 6

// fuzzMaxRecords bounds one input's trace length.
const fuzzMaxRecords = 512

// decodeFuzzTrace turns fuzz bytes into records and per-access
// latencies. PCs are word-aligned, as every trace source emits them,
// and land in one of three regions: the dense chain window, just above
// it, or just below chainBase (both served by Core's map fallback).
func decodeFuzzTrace(data []byte) ([]trace.Record, []int) {
	n := min(len(data)/fuzzRecordBytes, fuzzMaxRecords)
	recs := make([]trace.Record, n)
	lats := make([]int, n)
	for i := range recs {
		b := data[i*fuzzRecordBytes : (i+1)*fuzzRecordBytes]
		word := uint64(b[3]) | uint64(b[4])<<8
		var pc uint64
		switch (b[2] >> 1) % 3 {
		case 0:
			pc = chainBase + 4*(word%chainDenseSlots)
		case 1:
			pc = chainBase + 4*(chainDenseSlots+word%64)
		default:
			pc = chainBase - 4*(1+word%64)
		}
		recs[i] = trace.Record{PC: pc, VA: 0x1000, PA: 0x1000, Gap: uint16(b[0] % 65), DepDist: b[1]}
		if b[2]&1 != 0 {
			recs[i].Flags = trace.FlagStore
		}
		lats[i] = int(b[5])
	}
	return recs, lats
}

// encodeFuzzTrace is decodeFuzzTrace's inverse for records already in
// its domain (gaps above 64 are clamped), used to seed the corpus.
func encodeFuzzTrace(recs []trace.Record, lats []int) []byte {
	out := make([]byte, 0, len(recs)*fuzzRecordBytes)
	for i, r := range recs {
		kind := byte(0)
		if r.IsStore() {
			kind = 1
		}
		word := (r.PC - chainBase) / 4
		out = append(out, byte(min(r.Gap, 64)), r.DepDist, kind, byte(word), byte(word>>8), byte(lats[i]))
	}
	return out
}

// goldenPrefix returns the first n records of app's trace under the
// golden tables' seed, on a physical memory sized like sim.NewSystem's.
func goldenPrefix(t testing.TB, app string, n int) []trace.Record {
	t.Helper()
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	need := workload.FramesNeeded(prof)
	sys := vm.NewSystem(vm.ScenarioNormal, need*2+16384, need+need/4, 1)
	gen, err := workload.NewGenerator(prof, sys, 1, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		if err := gen.NextInto(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// fuzzCores are the configurations every input runs on: the paper's two
// cores, an odd width/ROB pair that neither divides the other, and a
// core wide enough to dispatch a whole stall ring's worth of
// instructions within one hit latency.
var fuzzCores = []Config{
	OOO(),
	InOrder(),
	{Name: "odd", Width: 3, ROB: 7, HideLatency: 1, StallCap: 5},
	{Name: "wide", Width: 64, ROB: 512, HideLatency: 2, StallCap: 12},
}

// FuzzCoreMatchesReference drives arbitrary record streams and memory
// latencies through Core and refCore and requires identical timing.
//
//	go test -run='^$' -fuzz=FuzzCoreMatchesReference ./internal/cpu/
func FuzzCoreMatchesReference(f *testing.F) {
	for _, app := range []string{"libquantum", "calculix", "h264ref", "ycsb"} {
		recs := goldenPrefix(f, app, 96)
		lats := make([]int, len(recs))
		for i, r := range recs {
			// Mostly L1 hits, with a miss every few lines.
			lats[i] = 4
			if r.VA>>6%5 == 0 {
				lats[i] = 180
			}
		}
		f.Add(encodeFuzzTrace(recs, lats))
	}
	// A slow load without a consumer (DepDist 0) followed by more than
	// stallRingSize fast instructions: the load must stall nothing, not
	// the instruction its stale ring slot aliases.
	noConsumer := []trace.Record{{PC: chainBase}}
	for i := 0; i < 8; i++ {
		noConsumer = append(noConsumer, trace.Record{PC: chainBase + 4, Gap: 64, DepDist: 9})
	}
	f.Add(encodeFuzzTrace(noConsumer, []int{255, 1, 1, 1, 1, 1, 1, 1, 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, lats := decodeFuzzTrace(data)
		for _, cfg := range fuzzCores {
			got := &scriptedMem{lats: lats}
			res, err := NewCore(cfg, got).Run(context.Background(), trace.NewSliceReader(recs))
			if err != nil {
				t.Fatal(err)
			}
			want := &scriptedMem{lats: lats}
			ref := newRefCore(cfg, want)
			for i := range recs {
				ref.step(&recs[i])
			}
			if len(got.issues) != len(want.issues) {
				t.Fatalf("%s: %d accesses, reference %d", cfg.Name, len(got.issues), len(want.issues))
			}
			for k := range want.issues {
				if got.issues[k] != want.issues[k] {
					t.Fatalf("%s: access %d (%+v) issued at cycle %d, reference %d",
						cfg.Name, k, recs[k], got.issues[k], want.issues[k])
				}
			}
			if res != ref.result() {
				t.Fatalf("%s: result %+v, reference %+v", cfg.Name, res, ref.result())
			}
		}
	})
}
