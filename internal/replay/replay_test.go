package replay_test

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"sipt/internal/fault"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// genRecords produces the live generator's record stream for an app,
// exactly as sim.RunApp would consume it.
func genRecords(t *testing.T, app string, sc vm.Scenario, seed int64, records uint64) []trace.Record {
	t.Helper()
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(sc, seed, prof)
	gen, err := workload.NewGenerator(prof, sys, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRoundTrip asserts the packed encoding is lossless for real
// generator output: materialise, decode, compare field-for-field. It
// covers every app in every scenario, so every synthetic trace packs
// (and hence fits a .sipt file, whose payload is this packing).
func TestRoundTrip(t *testing.T) {
	for _, app := range workload.AllApps() {
		for _, sc := range vm.Scenarios() {
			want := genRecords(t, app, sc, 1, 10_000)
			prof, err := workload.Lookup(app)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := sim.Materialize(prof, sc, 1, 10_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, sc, err)
			}
			if buf.Len() != len(want) {
				t.Fatalf("%s/%s: %d records materialised, want %d", app, sc, buf.Len(), len(want))
			}
			cur := buf.Cursor()
			var got trace.Record
			for i, w := range want {
				if err := cur.NextInto(&got); err != nil {
					t.Fatalf("%s/%s record %d: %v", app, sc, i, err)
				}
				if got != w {
					t.Fatalf("%s/%s record %d: got %+v want %+v", app, sc, i, got, w)
				}
			}
			if err := cur.NextInto(&got); !errors.Is(err, io.EOF) {
				t.Fatalf("%s/%s: expected EOF, got %v", app, sc, err)
			}
		}
	}
}

// TestCursorReset asserts Reset replays the identical records.
func TestCursorReset(t *testing.T) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, 7, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	cur := buf.Cursor()
	first, err := trace.Collect(cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur.Reset()
	second, err := trace.Collect(cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("reset changed length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs after reset", i)
		}
	}
}

// TestUnpackable asserts out-of-range records are rejected with
// ErrUnpackable rather than silently truncated.
func TestUnpackable(t *testing.T) {
	cases := []trace.Record{
		{PC: 0x100, VA: 0x1000, PA: 0x2000},                   // PC below the synthetic window
		{PC: 0x400002, VA: 0x1000, PA: 0x2000},                // misaligned PC
		{PC: 0x400000 + 4<<18, VA: 0x1000, PA: 0x2000},        // PC index overflow
		{PC: 0x400000, VA: 1 << 48, PA: 0x2000},               // VA beyond 48 bits
		{PC: 0x400000, VA: 0x1000, PA: 1 << 48},               // PA beyond 48 bits
		{PC: 0x400000, VA: 0x1000, PA: 0x2000, Flags: 1 << 5}, // undefined flag bit
	}
	for i, rec := range cases {
		var b replay.Buffer
		if err := b.Append(&rec); !errors.Is(err, replay.ErrUnpackable) {
			t.Errorf("case %d: got %v, want ErrUnpackable", i, err)
		}
	}
	// A maximal in-range record survives.
	// Offsets agree (both 0xfff), as translation guarantees.
	ok := trace.Record{
		PC: 0x400000 + 4*(1<<18-1), VA: 1<<48 - 1, PA: 1<<48 - 1,
		Gap: 0xffff, DepDist: 0xff, Flags: trace.FlagStore | trace.FlagHuge,
	}
	var b replay.Buffer
	if err := b.Append(&ok); err != nil {
		t.Fatalf("maximal record rejected: %v", err)
	}
	var got trace.Record
	if err := b.Cursor().NextInto(&got); err != nil {
		t.Fatal(err)
	}
	if got != ok {
		t.Fatalf("maximal record round-trip: got %+v want %+v", got, ok)
	}
}

// fakeBuffer builds a buffer of n records (16 bytes each).
func fakeBuffer(t *testing.T, n int) *replay.Buffer {
	t.Helper()
	var b replay.Buffer
	rec := trace.Record{PC: 0x400000, VA: 0x7f0000001000, PA: 0x1000}
	for i := 0; i < n; i++ {
		if err := b.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	return &b
}

// TestPoolSingleflight asserts concurrent Gets of one key share a
// single materialisation.
func TestPoolSingleflight(t *testing.T) {
	var calls atomic.Int64
	p := replay.NewPool(1<<30, 0, func(k replay.Key) (*replay.Buffer, error) {
		calls.Add(1)
		return fakeBuffer(t, 100), nil
	})
	key := replay.Key{App: "x", Records: 100}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, err := p.Get(key)
			if err != nil || buf.Len() != 100 {
				t.Errorf("Get: %v (len %d)", err, buf.Len())
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("materialised %d times, want 1", calls.Load())
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 1 miss / 31 hits", st)
	}
}

// TestPoolErrorsNotCached asserts a failed materialisation is retried.
func TestPoolErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	p := replay.NewPool(1<<30, 0, func(k replay.Key) (*replay.Buffer, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return fakeBuffer(t, 10), nil
	})
	key := replay.Key{App: "x"}
	if _, err := p.Get(key); !errors.Is(err, boom) {
		t.Fatalf("first Get: %v, want boom", err)
	}
	buf, err := p.Get(key)
	if err != nil || buf.Len() != 10 {
		t.Fatalf("second Get: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (error retried)", calls.Load())
	}
}

// TestPoolByteBudget hammers a small pool from many goroutines over a
// keyspace far larger than the budget and asserts the resident byte
// bound holds at every observation point — the bounded-memory contract
// the siptd daemon relies on under concurrent sweeps.
func TestPoolByteBudget(t *testing.T) {
	const (
		recsPerBuf  = 256           // 4 KiB per buffer
		budget      = 64 << 10      // 64 KiB total
		perShardMax = int64(budget) // global bound equals the sum of shard bounds
	)
	p := replay.NewPool(budget, 0, func(k replay.Key) (*replay.Buffer, error) {
		return fakeBuffer(t, recsPerBuf), nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := replay.Key{App: fmt.Sprintf("app-%d", (g*31+i)%97), Seed: int64(i % 5)}
				buf, err := p.Get(key)
				if err != nil || buf.Len() != recsPerBuf {
					t.Errorf("Get: %v", err)
					return
				}
				if st := p.Stats(); st.Bytes > perShardMax {
					t.Errorf("pool bytes %d exceed budget %d", st.Bytes, budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Bytes > budget {
		t.Fatalf("final pool bytes %d exceed budget %d", st.Bytes, budget)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected residency and evictions under pressure, got %+v", st)
	}
}

// TestPoolOversizedBufferNotRetained asserts a buffer larger than the
// whole budget is returned to the caller but not kept resident.
func TestPoolOversizedBufferNotRetained(t *testing.T) {
	p := replay.NewPool(1<<10, 1, func(k replay.Key) (*replay.Buffer, error) {
		return fakeBuffer(t, 1024), nil // 16 KiB >> 1 KiB budget
	})
	buf, err := p.Get(replay.Key{App: "big"})
	if err != nil || buf.Len() != 1024 {
		t.Fatalf("Get: %v", err)
	}
	st := p.Stats()
	if st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversized buffer retained: %+v", st)
	}
	if st.Oversize != 1 {
		t.Fatalf("oversize drop not counted: %+v", st)
	}
	// A second oversize materialisation counts again; a normal-sized
	// entry does not.
	if _, err := p.Get(replay.Key{App: "big2"}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Oversize != 2 {
		t.Fatalf("second oversize drop not counted: %+v", st)
	}
}

// TestPoolOversizeKeyNeverMaterialises asserts a key whose declared
// length exceeds one shard's budget is refused before anything else
// happens: no materialisation, no hit or miss, and no fault draw (an
// armed 1/1 eviction storm would otherwise answer ErrEvicted).
func TestPoolOversizeKeyNeverMaterialises(t *testing.T) {
	var calls atomic.Int64
	p := replay.NewPool(1<<10, 1, func(k replay.Key) (*replay.Buffer, error) {
		calls.Add(1)
		return fakeBuffer(t, 1), nil
	})
	// 1 KiB holds 64 records; 65 is one too many.
	key := replay.Key{App: "big", Records: 1<<10/replay.BytesPerRecord + 1}
	if _, err := p.Get(key); !errors.Is(err, replay.ErrOversize) {
		t.Fatalf("Get: err = %v, want ErrOversize", err)
	}
	if st := p.Stats(); st.Oversize != 1 || st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want Oversize 1 and nothing else", st)
	}

	spec, err := fault.ParseSpec("replay.pool.evict:1/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
	if _, err := p.Get(key); !errors.Is(err, replay.ErrOversize) {
		t.Fatalf("Get under an evict storm: err = %v, want ErrOversize", err)
	}
	fault.Disarm()

	if n := calls.Load(); n != 0 {
		t.Fatalf("materializer called %d times for an oversize key", n)
	}
	if st := p.Stats(); st.Oversize != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want Oversize 2 and no lookups", st)
	}
	// One record fewer fits, and is materialised as usual.
	key.Records--
	if _, err := p.Get(key); err != nil || calls.Load() != 1 {
		t.Fatalf("Get at the limit: err = %v, materialisations = %d", err, calls.Load())
	}
}

// TestWordsRoundTrip asserts the word-level serialisation surface:
// Buffer -> Words -> BufferFromWords replays identical records, and odd
// word counts are rejected.
func TestWordsRoundTrip(t *testing.T) {
	prof, err := workload.Lookup("h264ref")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioFragmented, 3, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := replay.BufferFromWords(buf.Words())
	if err != nil {
		t.Fatal(err)
	}
	if clone.Len() != buf.Len() || clone.Bytes() != buf.Bytes() {
		t.Fatalf("clone shape %d/%d, want %d/%d", clone.Len(), clone.Bytes(), buf.Len(), buf.Bytes())
	}
	a, b := buf.Cursor(), clone.Cursor()
	var ra, rb trace.Record
	for i := 0; i < buf.Len(); i++ {
		erra := a.NextInto(&ra)
		errb := b.NextInto(&rb)
		if erra != nil || errb != nil {
			t.Fatalf("record %d: %v / %v", i, erra, errb)
		}
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	if _, err := replay.BufferFromWords(make([]uint64, 3)); err == nil {
		t.Fatal("odd word count accepted")
	}
}

// TestPackUnpackRecord asserts the exported pack/unpack pair is the
// same bijection Append/Cursor use.
func TestPackUnpackRecord(t *testing.T) {
	in := trace.Record{
		PC: 0x400000 + 4*12345, VA: 0x7f00deadb000 | 0x321, PA: 0x1234567000 | 0x321,
		Gap: 77, DepDist: 9, Flags: trace.FlagStore,
	}
	w0, w1, err := replay.PackRecord(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out trace.Record
	replay.UnpackRecord(w0, w1, &out)
	if out != in {
		t.Fatalf("round-trip: got %+v want %+v", out, in)
	}
	bad := trace.Record{PC: 0x100}
	if _, _, err := replay.PackRecord(&bad); !errors.Is(err, replay.ErrUnpackable) {
		t.Fatalf("got %v, want ErrUnpackable", err)
	}
}
