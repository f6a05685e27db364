package vm

import (
	"testing"

	"sipt/internal/memaddr"
)

func TestAllocColoredMatchesColor(t *testing.T) {
	b := NewBuddy(1 << 12)
	for color := uint64(0); color < 1<<ColorBits; color++ {
		pfn, colored, err := b.AllocColored(color)
		if err != nil {
			t.Fatal(err)
		}
		if !colored {
			t.Fatalf("color %d: fallback on fresh memory", color)
		}
		if uint64(pfn)&(1<<ColorBits-1) != color {
			t.Errorf("color %d: got frame %#x", color, pfn)
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocColoredFallsBackUnderPressure(t *testing.T) {
	b := NewBuddy(64)
	// Drain everything except frames of one specific color.
	var keep []memaddr.PFN
	for {
		pfn, ok := b.Alloc()
		if !ok {
			break
		}
		if uint64(pfn)&(1<<ColorBits-1) != 5 {
			keep = append(keep, pfn)
		} else {
			defer b.Free(pfn, 0)
		}
	}
	for _, pfn := range keep {
		b.Free(pfn, 0)
	}
	// Now only color-!=5 frames are free; asking for color 5 must fall
	// back rather than fail.
	_, colored, err := b.AllocColored(5)
	if err != nil {
		t.Fatal(err)
	}
	if colored {
		t.Error("claimed colored success with no color-5 frames free")
	}
}

func TestColoredSpacePreservesIndexBits(t *testing.T) {
	b := NewBuddy(1 << 14)
	// Disturb the allocator so identity mapping is not automatic.
	for i := 0; i < 5; i++ {
		b.Alloc()
	}
	as := NewAddressSpace(b, true)
	as.EnableColoring()
	if as.THP() {
		t.Fatal("coloring must disable THP")
	}
	base := as.Mmap(128 * memaddr.PageBytes)
	var colored int
	for off := uint64(0); off < 128*memaddr.PageBytes; off += memaddr.PageBytes {
		va := base + memaddr.VAddr(off)
		pa, _, err := as.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if memaddr.BitsUnchanged(va, pa, ColorBits) {
			colored++
		}
	}
	st := as.ColoringStats()
	if st.Colored == 0 {
		t.Fatal("no colored allocations recorded")
	}
	if colored < 120 { // allow a few fallbacks
		t.Errorf("only %d/128 pages kept their %d index bits", colored, ColorBits)
	}
	if int(st.Colored) != colored {
		t.Errorf("stats.Colored = %d, measured %d", st.Colored, colored)
	}
}
