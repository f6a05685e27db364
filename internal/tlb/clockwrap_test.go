package tlb

import (
	"math"
	"testing"

	"sipt/internal/memaddr"
)

func pageVA(i uint64) memaddr.VAddr { return memaddr.VAddr(i << memaddr.PageShift) }

// TestArrayClockWrapPreservesLRU drives one translation array's 32-bit
// LRU clock through wraparound and checks stamp compaction preserves
// the eviction order.
func TestArrayClockWrapPreservesLRU(t *testing.T) {
	a := newArray(4, 4) // one 4-way set
	for k := uint64(0); k < 4; k++ {
		a.insert(k) // stamps 1..4, LRU order 0 < 1 < 2 < 3
	}

	a.clock = math.MaxUint32 - 2
	if !a.lookup(2) { // stamp MaxUint32-1
		t.Fatal("key 2 missing")
	}
	if !a.lookup(0) { // stamp MaxUint32
		t.Fatal("key 0 missing")
	}

	// The next tick wraps and compacts. LRU order is 1 < 3 < 2 < 0, so
	// the insert evicts key 1.
	a.insert(4)
	if a.clock >= math.MaxUint32-2 {
		t.Fatalf("clock = %d, not compacted", a.clock)
	}
	if a.lookup(1) {
		t.Fatal("key 1 should have been evicted at the wrap")
	}
	for _, k := range []uint64{0, 2, 3, 4} {
		if !a.lookup(k) {
			t.Fatalf("key %d lost across clock wrap", k)
		}
	}
}

// TestTranslateAcrossClockWrap checks the full TLB stays consistent
// when each of its arrays crosses the boundary mid-run.
func TestTranslateAcrossClockWrap(t *testing.T) {
	tl := New(Default())
	for i := uint64(0); i < 32; i++ {
		tl.Translate(pageVA(i), false)
	}
	tl.l1Small.clock = math.MaxUint32 - 5
	tl.l2.clock = math.MaxUint32 - 5
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 32; i++ {
			tl.Translate(pageVA(i), false)
		}
	}
	s := tl.Stats()
	if s.Walks != 32 {
		t.Fatalf("walks = %d after wrap rounds, want 32 (no entry lost)", s.Walks)
	}
}
