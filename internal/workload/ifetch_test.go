package workload

import (
	"errors"
	"io"
	"testing"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

func TestIFetchGeneratorBasics(t *testing.T) {
	sys := smallSystem(t, vm.ScenarioNormal)
	g, err := NewIFetchGenerator(scaled(t, "h264ref", 2), sys, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	lines := make(map[memaddr.VAddr]bool)
	pcs := make(map[uint64]bool)
	var rec trace.Record
	for {
		err := g.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if rec.IsStore() {
			t.Fatal("instruction fetch marked as store")
		}
		if rec.VA.Line() != rec.VA {
			t.Fatalf("fetch address %#x not line-aligned", uint64(rec.VA))
		}
		pa, _, ok := g.as.Lookup(rec.VA)
		if !ok || pa != rec.PA {
			t.Fatalf("fetch PA inconsistent with address space at %#x", uint64(rec.VA))
		}
		lines[rec.VA] = true
		pcs[rec.PC] = true
	}
	if n != 5000 {
		t.Fatalf("records = %d, want 5000", n)
	}
	// Instruction working sets are small: far fewer distinct lines than
	// fetches (loops), and PCs are function-granular.
	if len(lines) >= n/2 {
		t.Errorf("%d distinct lines out of %d fetches: no loop reuse", len(lines), n)
	}
	if len(pcs) > 256 {
		t.Errorf("%d distinct prediction indices; expected function-granular", len(pcs))
	}
}

func TestIFetchDeterministic(t *testing.T) {
	mk := func() []uint64 {
		sys := vm.NewSystem(vm.ScenarioNormal, 96<<20/memaddr.PageBytes, 0, 5)
		g, err := NewIFetchGenerator(scaled(t, "gcc", 2), sys, 7, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var vas []uint64
		var rec trace.Record
		for {
			err := g.NextInto(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			vas = append(vas, uint64(rec.VA))
		}
		return vas
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fetch %d differs", i)
		}
	}
}

func TestIFetchSingleDelta(t *testing.T) {
	// The text segment faults in link order, so buddy contiguity gives
	// it very few VA->PA deltas (one per contiguous free block it
	// spanned) — the property that makes the IDB learn the I-side
	// almost instantly.
	sys := smallSystem(t, vm.ScenarioNormal)
	g, err := NewIFetchGenerator(scaled(t, "calculix", 2), sys, 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make(map[uint64]bool)
	var rec trace.Record
	for {
		err := g.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		deltas[memaddr.IndexDelta(rec.VA, rec.PA, 3)] = true
	}
	if len(deltas) > 4 {
		t.Errorf("text segment has %d distinct deltas, want few (block-granular)", len(deltas))
	}
}
