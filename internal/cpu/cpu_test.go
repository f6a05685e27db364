package cpu

import (
	"context"
	"errors"
	"testing"

	"sipt/internal/trace"
)

// fixedMem returns a constant latency for every access and records the
// issue times it saw.
type fixedMem struct {
	lat    int
	issues []uint64
}

func (m *fixedMem) Access(rec *trace.Record, now uint64) MemResult {
	m.issues = append(m.issues, now)
	return MemResult{Latency: m.lat}
}

func loadRec(pc uint64, gap uint16, dep uint8) trace.Record {
	return trace.Record{PC: pc, VA: 0x1000, PA: 0x1000, Gap: gap, DepDist: dep}
}

func storeRec(pc uint64, gap uint16) trace.Record {
	return trace.Record{PC: pc, VA: 0x1000, PA: 0x1000, Gap: gap, Flags: trace.FlagStore}
}

func TestConfigValidate(t *testing.T) {
	if err := OOO().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := InOrder().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Width: 0, ROB: 8}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
	if err := (Config{Width: 2, ROB: 0}).Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	mem := &fixedMem{lat: 1}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = loadRec(uint64(0x400000+i%16*4), 5, 8) // independent
	}
	res, err := c.Run(context.Background(), trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() > float64(OOO().Width) {
		t.Errorf("IPC %.2f exceeds width %d", res.IPC(), OOO().Width)
	}
	if res.IPC() < 1 {
		t.Errorf("IPC %.2f unreasonably low for ILP-rich stream", res.IPC())
	}
	if res.Instructions != 6000 {
		t.Errorf("Instructions = %d, want 6000", res.Instructions)
	}
}

func TestOOOHidesMostIndependentLatency(t *testing.T) {
	// Independent loads (large DepDist): raising L1 latency from 2 to 4
	// hurts an OOO core only mildly (the scheduler hides HideLatency
	// cycles and surrounding ILP covers part of the rest).
	run := func(lat int) float64 {
		mem := &fixedMem{lat: lat}
		c := NewCore(OOO(), mem)
		recs := make([]trace.Record, 2000)
		for i := range recs {
			recs[i] = loadRec(uint64(0x400000+i%16*4), 3, 10)
		}
		res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
		return res.IPC()
	}
	fast, slow := run(2), run(4)
	if slow < fast*0.80 {
		t.Errorf("independent loads: IPC %.2f -> %.2f; OOO hides too little", fast, slow)
	}
	if slow >= fast {
		t.Errorf("independent loads: IPC %.2f -> %.2f; hit latency must leak a little", fast, slow)
	}
}

func TestOOOMissesKeepMLP(t *testing.T) {
	// Latencies above StallCap must not consumer-stall dispatch: an OOO
	// core overlaps misses via the ROB. IPC with 200-cycle independent
	// "misses" must far exceed the fully-serialised bound.
	mem := &fixedMem{lat: 200}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = loadRec(uint64(0x400000+i%16*4), 3, 6)
	}
	res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
	serialised := 4.0 / 200.0 // 4 instructions per 200-cycle stall
	if res.IPC() < serialised*5 {
		t.Errorf("miss MLP destroyed: IPC %.3f", res.IPC())
	}
}

func TestOOOChasePenalisedByLatency(t *testing.T) {
	// Same-PC dependent loads (DepDist <= 3) chain: L1 latency is fully
	// exposed, so 4-cycle hits must be clearly slower than 2-cycle hits.
	run := func(lat int) float64 {
		mem := &fixedMem{lat: lat}
		c := NewCore(OOO(), mem)
		recs := make([]trace.Record, 2000)
		for i := range recs {
			recs[i] = loadRec(0x400000, 2, 1) // one chasing PC
		}
		res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
		return res.IPC()
	}
	fast, slow := run(2), run(4)
	if fast <= slow*1.2 {
		t.Errorf("chase stream: IPC fast=%.3f slow=%.3f; latency not exposed", fast, slow)
	}
}

func TestROBThrottlesMLP(t *testing.T) {
	// With a long memory latency and independent loads, a tiny ROB must
	// hurt much more than a big one (bounded MLP).
	run := func(rob int) float64 {
		mem := &fixedMem{lat: 200}
		cfg := OOO()
		cfg.ROB = rob
		c := NewCore(cfg, mem)
		recs := make([]trace.Record, 1000)
		for i := range recs {
			recs[i] = loadRec(uint64(0x400000+i%32*4), 4, 10)
		}
		res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
		return res.IPC()
	}
	big, small := run(192), run(8)
	if big <= small*2 {
		t.Errorf("ROB 192 IPC %.3f vs ROB 8 IPC %.3f; ROB must gate MLP", big, small)
	}
}

func TestInOrderStallsOnUse(t *testing.T) {
	// In-order: every load's consumer stalls, so latency shows directly.
	run := func(lat int) float64 {
		mem := &fixedMem{lat: lat}
		c := NewCore(InOrder(), mem)
		recs := make([]trace.Record, 2000)
		for i := range recs {
			recs[i] = loadRec(uint64(0x400000+i%16*4), 3, 2)
		}
		res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
		return res.IPC()
	}
	fast, slow := run(2), run(6)
	if fast <= slow*1.15 {
		t.Errorf("in-order IPC fast=%.3f slow=%.3f; stall-on-use broken", fast, slow)
	}
}

func TestInOrderSlowerThanOOO(t *testing.T) {
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = loadRec(uint64(0x400000+i%8*4), 2, 2)
	}
	memA, memB := &fixedMem{lat: 4}, &fixedMem{lat: 4}
	ooo, _ := NewCore(OOO(), memA).Run(context.Background(), trace.NewSliceReader(recs))
	ino, _ := NewCore(InOrder(), memB).Run(context.Background(), trace.NewSliceReader(recs))
	if ooo.IPC() <= ino.IPC() {
		t.Errorf("OOO IPC %.3f <= in-order IPC %.3f", ooo.IPC(), ino.IPC())
	}
}

func TestStoresDoNotStall(t *testing.T) {
	// A stream of stores with huge memory latency must still run at
	// full width (write buffer semantics).
	mem := &fixedMem{lat: 500}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = storeRec(uint64(0x400000+i%8*4), 5)
	}
	res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
	if res.IPC() < float64(OOO().Width)*0.9 {
		t.Errorf("store stream IPC %.2f; stores must not stall the core", res.IPC())
	}
	if res.Stores != 1000 || res.Loads != 0 {
		t.Errorf("counts: %+v", res)
	}
}

func TestMemSeesMonotonicIssueTimes(t *testing.T) {
	mem := &fixedMem{lat: 3}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 500)
	for i := range recs {
		recs[i] = loadRec(uint64(0x400000+i%4*4), 1, 2)
	}
	if _, err := c.Run(context.Background(), trace.NewSliceReader(recs)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(mem.issues); i++ {
		if mem.issues[i] < mem.issues[i-1] {
			t.Fatalf("issue times regress at %d: %d < %d", i, mem.issues[i], mem.issues[i-1])
		}
	}
}

// TestRunHonoursMaxRecords: a trace.Limit-bounded reader ends the run
// after exactly that many records.
func TestRunHonoursMaxRecords(t *testing.T) {
	mem := &fixedMem{lat: 1}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = loadRec(0x400000, 0, 5)
	}
	res, err := c.Run(context.Background(), trace.Limit(trace.NewSliceReader(recs), 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads != 10 {
		t.Errorf("Loads = %d, want 10", res.Loads)
	}
}

func TestGapInstructionsCounted(t *testing.T) {
	mem := &fixedMem{lat: 1}
	c := NewCore(OOO(), mem)
	res, err := c.Run(context.Background(), trace.NewSliceReader([]trace.Record{loadRec(0x400000, 9, 5)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 10 {
		t.Errorf("Instructions = %d, want 10 (9 gap + 1 load)", res.Instructions)
	}
}

func TestNewCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCore accepted nil mem")
		}
	}()
	NewCore(OOO(), nil)
}

func TestDeterministic(t *testing.T) {
	mk := func() Result {
		mem := &fixedMem{lat: 7}
		c := NewCore(InOrder(), mem)
		recs := make([]trace.Record, 1000)
		for i := range recs {
			recs[i] = loadRec(uint64(0x400000+i%16*4), uint16(i%7), uint8(1+i%10))
		}
		res, _ := c.Run(context.Background(), trace.NewSliceReader(recs))
		return res
	}
	if mk() != mk() {
		t.Error("core timing not deterministic")
	}
}

// TestLatencyMonotonicity: for any trace, raising the uniform memory
// latency can never reduce total cycles, on either core model.
func TestLatencyMonotonicity(t *testing.T) {
	mkTrace := func(seed int64) []trace.Record {
		recs := make([]trace.Record, 600)
		for i := range recs {
			r := loadRec(uint64(0x400000+(seed+int64(i))%24*4), uint16(i%9), uint8(1+i%12))
			if i%4 == 0 {
				r.Flags = trace.FlagStore
				r.DepDist = 0
			}
			recs[i] = r
		}
		return recs
	}
	for _, cfg := range []Config{OOO(), InOrder()} {
		for seed := int64(0); seed < 5; seed++ {
			recs := mkTrace(seed)
			var prev uint64
			for _, lat := range []int{1, 2, 4, 8, 30, 100} {
				c := NewCore(cfg, &fixedMem{lat: lat})
				res, err := c.Run(context.Background(), trace.NewSliceReader(recs))
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles < prev {
					t.Fatalf("%s seed %d: cycles decreased (%d -> %d) as latency rose to %d",
						cfg.Name, seed, prev, res.Cycles, lat)
				}
				prev = res.Cycles
			}
		}
	}
}

// TestWiderCoreNeverSlower: doubling dispatch width cannot increase
// cycle count for the same trace and memory.
func TestWiderCoreNeverSlower(t *testing.T) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = loadRec(uint64(0x400000+i%8*4), uint16(i%5), uint8(3+i%8))
	}
	narrow := OOO()
	narrow.Width = 2
	wide := OOO()
	wide.Width = 8
	rn, _ := NewCore(narrow, &fixedMem{lat: 3}).Run(context.Background(), trace.NewSliceReader(recs))
	rw, _ := NewCore(wide, &fixedMem{lat: 3}).Run(context.Background(), trace.NewSliceReader(recs))
	if rw.Cycles > rn.Cycles {
		t.Errorf("8-wide (%d cycles) slower than 2-wide (%d)", rw.Cycles, rn.Cycles)
	}
}

// TestRunCancelledContext verifies a cancelled context stops Run with
// the context's error before the trace is consumed.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mem := &fixedMem{lat: 1}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 10)
	for i := range recs {
		recs[i] = loadRec(0x400000, 0, 5)
	}
	res, err := c.Run(ctx, trace.NewSliceReader(recs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if res.Loads != 0 {
		t.Errorf("cancelled-before-start run executed %d loads", res.Loads)
	}
}

// TestRunStopsWithinCheckInterval cancels mid-run and asserts the loop
// notices within one CtxCheckInterval worth of records.
func TestRunStopsWithinCheckInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mem := &fixedMem{lat: 1}
	c := NewCore(OOO(), mem)
	recs := make([]trace.Record, 3*CtxCheckInterval)
	for i := range recs {
		recs[i] = loadRec(0x400000, 0, 5)
	}
	// Cancel from a reader wrapper once some records have flowed: the
	// next interval boundary must abort the run.
	base := trace.NewSliceReader(recs)
	n := 0
	r := readerFunc(func(rec *trace.Record) error {
		n++
		if n == 100 {
			cancel()
		}
		return base.NextInto(rec)
	})
	res, err := c.Run(ctx, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if res.Loads > CtxCheckInterval+100 {
		t.Errorf("run consumed %d records after cancellation (check interval %d)",
			res.Loads, CtxCheckInterval)
	}
}

// readerFunc adapts a closure to trace.Reader.
type readerFunc func(rec *trace.Record) error

func (f readerFunc) NextInto(rec *trace.Record) error { return f(rec) }
