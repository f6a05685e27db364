package memaddr

import (
	"testing"
	"testing/quick"
)

func TestPageNumOffset(t *testing.T) {
	v := VAddr(0x12345678)
	if got, want := v.PageNum(), VPN(0x12345); got != want {
		t.Errorf("PageNum = %#x, want %#x", got, want)
	}
	if got, want := v.Offset(), uint64(0x678); got != want {
		t.Errorf("Offset = %#x, want %#x", got, want)
	}
	if got := v.PageNum().Addr(v.Offset()); got != v {
		t.Errorf("round trip = %#x, want %#x", got, v)
	}
}

func TestPAddrPageNumOffset(t *testing.T) {
	p := PAddr(0xdeadbeef)
	if got := p.PageNum().Addr(p.Offset()); got != p {
		t.Errorf("round trip = %#x, want %#x", got, p)
	}
}

func TestLine(t *testing.T) {
	if got, want := VAddr(0x13f).Line(), VAddr(0x100); got != want {
		t.Errorf("VAddr.Line = %#x, want %#x", got, want)
	}
	if got, want := PAddr(0x13f).Line(), PAddr(0x100); got != want {
		t.Errorf("PAddr.Line = %#x, want %#x", got, want)
	}
}

func TestIndexBits(t *testing.T) {
	// Bits 14:12 of the address are 0b101.
	addr := uint64(0b101) << PageShift
	cases := []struct {
		k    uint
		want uint64
	}{
		{0, 0}, {1, 1}, {2, 0b01}, {3, 0b101}, {4, 0b0101},
	}
	for _, c := range cases {
		if got := IndexBits(addr, c.k); got != c.want {
			t.Errorf("IndexBits(k=%d) = %#b, want %#b", c.k, got, c.want)
		}
	}
}

func TestIndexDeltaApplyDelta(t *testing.T) {
	// Property: for any VA/PA pair, applying the computed delta yields
	// the physical index bits, for all speculative widths 1..3.
	f := func(v VAddr, p PAddr) bool {
		for k := uint(1); k <= 3; k++ {
			d := IndexDelta(v, p, k)
			if ApplyDelta(v, d, k) != IndexBitsPA(p, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsUnchanged(t *testing.T) {
	v := VAddr(0x3 << PageShift) // index bits 0b11
	pSame := PFN(0xabc00 | 0x3).Addr(0)
	pDiff := PFN(0xabc00 | 0x1).Addr(0)
	if !BitsUnchanged(v, pSame, 2) {
		t.Error("expected unchanged for matching low index bits")
	}
	if BitsUnchanged(v, pDiff, 2) {
		t.Error("expected changed for differing low index bits")
	}
	if !BitsUnchanged(v, pDiff, 1) {
		t.Error("bit 12 matches, k=1 should be unchanged")
	}
}

func TestUnchangedBits(t *testing.T) {
	v := VAddr(0)
	// PA differs from VA first at bit 14 (i.e. 2 index bits match).
	p := PAddr(1 << 14)
	if got := UnchangedBits(v, p, 9); got != 2 {
		t.Errorf("UnchangedBits = %d, want 2", got)
	}
	if got := UnchangedBits(v, PAddr(0), 9); got != 9 {
		t.Errorf("identical mapping: UnchangedBits = %d, want 9 (max)", got)
	}
	if got := UnchangedBits(v, PAddr(1<<PageShift), 9); got != 0 {
		t.Errorf("bit 12 differs: UnchangedBits = %d, want 0", got)
	}
}

func TestUnchangedBitsConsistentWithBitsUnchanged(t *testing.T) {
	f := func(v VAddr, p PAddr) bool {
		n := UnchangedBits(v, p, 9)
		for k := uint(1); k <= 9; k++ {
			if BitsUnchanged(v, p, k) != (k <= n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 4: 2, 64: 6, 4096: 12, 1 << 21: 21}
	for x, want := range cases {
		if got := Log2(x); got != want {
			t.Errorf("Log2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLog2PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestIsPow2(t *testing.T) {
	for _, x := range []uint64{1, 2, 4, 1024, 1 << 40} {
		if !IsPow2(x) {
			t.Errorf("IsPow2(%d) = false, want true", x)
		}
	}
	for _, x := range []uint64{0, 3, 6, 1023, 1<<40 + 1} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true, want false", x)
		}
	}
}

func TestAlign(t *testing.T) {
	if got := AlignDown(0x1fff, PageBytes); got != 0x1000 {
		t.Errorf("AlignDown = %#x, want 0x1000", got)
	}
	if got := AlignUp(0x1001, PageBytes); got != 0x2000 {
		t.Errorf("AlignUp = %#x, want 0x2000", got)
	}
	if got := AlignUp(0x2000, PageBytes); got != 0x2000 {
		t.Errorf("AlignUp aligned input = %#x, want 0x2000", got)
	}
}

func TestHugePageConstants(t *testing.T) {
	if HugeExtraBits != 9 {
		t.Errorf("HugeExtraBits = %d, want 9", HugeExtraBits)
	}
	if HugePageBytes != 512*PageBytes {
		t.Errorf("HugePageBytes = %d, want %d", HugePageBytes, 512*PageBytes)
	}
}
