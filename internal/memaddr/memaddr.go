// Package memaddr provides address arithmetic shared by the whole
// simulator: virtual/physical address types, page and cache-line bit
// fields, and helpers for extracting the speculative index bits that
// SIPT predicts.
//
// The address layout follows the paper's assumptions: 64-byte cache
// lines, 4 KiB base pages (12 offset bits) and 2 MiB huge pages
// (21 offset bits).
package memaddr

// VAddr is a virtual address.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// Fundamental geometry constants.
const (
	// LineBytes is the cache line size used throughout the hierarchy.
	LineBytes = 64
	// LineShift is log2(LineBytes).
	LineShift = 6

	// PageShift is log2 of the base page size (4 KiB).
	PageShift = 12
	// PageBytes is the base page size.
	PageBytes = 1 << PageShift

	// HugePageShift is log2 of the huge page size (2 MiB).
	HugePageShift = 21
	// HugePageBytes is the huge page size.
	HugePageBytes = 1 << HugePageShift

	// HugeExtraBits is the number of index bits beyond the base page
	// offset that a huge page guarantees unchanged by translation
	// (21 - 12 = 9). Fig. 5's "hugepage" bars use this.
	HugeExtraBits = HugePageShift - PageShift
)

// VPN is a virtual page number (4 KiB granularity).
type VPN uint64

// PFN is a physical frame number (4 KiB granularity).
type PFN uint64

// PageNum returns the 4 KiB virtual page number of v.
func (v VAddr) PageNum() VPN { return VPN(v >> PageShift) }

// Offset returns the offset of v within its 4 KiB page.
func (v VAddr) Offset() uint64 { return uint64(v) & (PageBytes - 1) }

// HugePageNum returns the 2 MiB page number of v.
func (v VAddr) HugePageNum() uint64 { return uint64(v) >> HugePageShift }

// Line returns the cache-line address (byte address with offset bits
// cleared) of v.
func (v VAddr) Line() VAddr { return v &^ (LineBytes - 1) }

// PageNum returns the 4 KiB physical frame number of p.
func (p PAddr) PageNum() PFN { return PFN(p >> PageShift) }

// Offset returns the offset of p within its 4 KiB frame.
func (p PAddr) Offset() uint64 { return uint64(p) & (PageBytes - 1) }

// Line returns the cache-line address of p.
func (p PAddr) Line() PAddr { return p &^ (LineBytes - 1) }

// Addr reconstructs a virtual address from a page number and offset.
func (n VPN) Addr(offset uint64) VAddr {
	return VAddr(uint64(n)<<PageShift | offset&(PageBytes-1))
}

// Addr reconstructs a physical address from a frame number and offset.
func (n PFN) Addr(offset uint64) PAddr {
	return PAddr(uint64(n)<<PageShift | offset&(PageBytes-1))
}

// IndexBits extracts k index bits starting at the base-page boundary,
// i.e. bits [PageShift+k-1 : PageShift]. These are exactly the bits a
// SIPT design with k speculative bits must guess before translation.
func IndexBits(addr uint64, k uint) uint64 {
	if k == 0 {
		return 0
	}
	return (addr >> PageShift) & ((1 << k) - 1)
}

// IndexBitsVA is IndexBits for a virtual address.
func IndexBitsVA(v VAddr, k uint) uint64 { return IndexBits(uint64(v), k) }

// IndexBitsPA is IndexBits for a physical address.
func IndexBitsPA(p PAddr, k uint) uint64 { return IndexBits(uint64(p), k) }

// IndexDelta returns the k-bit delta that must be added (mod 2^k) to
// the virtual index bits to obtain the physical index bits. This is the
// quantity an IDB entry stores.
func IndexDelta(v VAddr, p PAddr, k uint) uint64 {
	if k == 0 {
		return 0
	}
	mask := uint64(1)<<k - 1
	return (IndexBitsPA(p, k) - IndexBitsVA(v, k)) & mask
}

// ApplyDelta adds a k-bit delta to the speculative index bits of a
// virtual address and returns the predicted physical index bits. The
// addition wraps within k bits (the paper's "truncate if it overflows").
func ApplyDelta(v VAddr, delta uint64, k uint) uint64 {
	if k == 0 {
		return 0
	}
	mask := uint64(1)<<k - 1
	return (IndexBitsVA(v, k) + delta) & mask
}

// BitsUnchanged reports whether the k speculative index bits of v
// survive translation to p unchanged. A fast naive-SIPT access requires
// this to hold.
func BitsUnchanged(v VAddr, p PAddr, k uint) bool {
	return IndexBitsVA(v, k) == IndexBitsPA(p, k)
}

// UnchangedBits returns the largest k in [0, max] such that the low k
// index bits beyond the page offset are unchanged by translation. Used
// by the Fig. 5 analysis to bucket accesses by required speculation
// width.
func UnchangedBits(v VAddr, p PAddr, max uint) uint {
	x := (uint64(v) >> PageShift) ^ (uint64(p) >> PageShift)
	var k uint
	for k = 0; k < max; k++ {
		if x&(1<<k) != 0 {
			break
		}
	}
	return k
}

// Log2 returns floor(log2(x)) for x > 0 and panics on 0: the simulator
// uses it for structural parameters that must be powers of two.
func Log2(x uint64) uint {
	if x == 0 {
		panic("memaddr: Log2(0)")
	}
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// IsPow2 reports whether x is a power of two (and nonzero).
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// AlignDown rounds addr down to a multiple of align (a power of two).
func AlignDown(addr, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to a multiple of align (a power of two).
func AlignUp(addr, align uint64) uint64 {
	return (addr + align - 1) &^ (align - 1)
}
