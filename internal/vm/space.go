package vm

import (
	"fmt"
	"sort"

	"sipt/internal/memaddr"
)

// mapping records how one virtual page is backed.
type mapping struct {
	pfn   memaddr.PFN
	huge  bool // part of a 2 MiB huge mapping; pfn is the exact 4 KiB frame
	valid bool
}

// The page table is a flat two-level radix: leaves of 512 mappings
// (2 MiB of virtual space each, mirroring a real last-level page table)
// indexed by VPN relative to MmapBase. Every simulated access
// translates, so lookups must be two array dereferences, not a hash —
// this is the simulator's own "software TLB" fast path.
const (
	leafBits = 9
	leafSize = 1 << leafBits
)

type pageLeaf [leafSize]mapping

// vma is a contiguous virtual memory area created by Mmap.
type vma struct {
	base memaddr.VAddr
	size uint64
}

func (a vma) contains(v memaddr.VAddr) bool {
	return v >= a.base && uint64(v) < uint64(a.base)+a.size
}

// Stats counts address-space events of interest to the experiments.
type Stats struct {
	Faults        uint64 // minor faults (first-touch allocations)
	HugeFaults    uint64 // faults satisfied by a 2 MiB huge page
	HugeFallbacks uint64 // huge attempts that fell back to 4 KiB
	MappedPages   uint64 // 4 KiB pages currently mapped
	MappedHuge    uint64 // 2 MiB regions currently mapped huge
}

// AddressSpace is a per-process virtual address space with demand
// paging on top of a shared physical Buddy allocator.
//
// Transparent huge pages follow the Linux THP model: a fault inside a
// 2 MiB-aligned virtual range that lies entirely within one VMA and has
// no 4 KiB pages mapped yet is promoted to a huge page when a 512-frame
// physical block is available; otherwise the fault falls back to a
// single 4 KiB frame.
type AddressSpace struct {
	phys *Buddy
	thp  bool
	// dir is the flat page table: dir[(vpn-dirBase)>>leafBits] holds the
	// leaf for that 2 MiB-aligned stripe of virtual space. VPNs below
	// dirBase (never produced by Mmap) fall back to lowPages.
	dir      []*pageLeaf
	lowPages map[memaddr.VPN]mapping
	huge     map[uint64]memaddr.PFN // huge-region number (VA>>21) -> base PFN
	vmas     []vma
	next     memaddr.VAddr // next mmap base
	stats    Stats

	// colored enables page-colored allocation (see coloring.go).
	colored  bool
	coloring ColoringStats

	// aliases maps alias VPNs to their canonical VPN (synonyms): the
	// alias resolves to whatever frame backs the canonical page.
	aliases map[memaddr.VPN]memaddr.VPN
}

// MmapBase is the bottom of the simulated mmap region. Real processes
// see high canonical addresses here; the exact value only matters for
// index-bit extraction, so any page-aligned constant works.
const MmapBase = memaddr.VAddr(0x7f00_0000_0000)

// dirBase is the VPN the flat page table is anchored at.
const dirBase = uint64(MmapBase) >> memaddr.PageShift

// NewAddressSpace creates an empty address space backed by phys.
// When thp is true, transparent huge pages are attempted on faults.
func NewAddressSpace(phys *Buddy, thp bool) *AddressSpace {
	return &AddressSpace{
		phys: phys,
		thp:  thp,
		huge: make(map[uint64]memaddr.PFN),
		next: MmapBase,
	}
}

// page returns the mapping for vpn, or an invalid zero mapping. This is
// the translation fast path: two array dereferences on mapped pages.
func (as *AddressSpace) page(vpn memaddr.VPN) mapping {
	idx := uint64(vpn) - dirBase
	if idx >= uint64(len(as.dir))<<leafBits {
		if as.lowPages != nil {
			return as.lowPages[vpn]
		}
		return mapping{}
	}
	leaf := as.dir[idx>>leafBits]
	if leaf == nil {
		return mapping{}
	}
	return leaf[idx&(leafSize-1)]
}

// setPage installs a mapping for vpn, growing the table as needed.
func (as *AddressSpace) setPage(vpn memaddr.VPN, m mapping) {
	idx := uint64(vpn) - dirBase
	if idx >= 1<<40 { // below MmapBase (wrapped) or absurdly high: overflow map
		if as.lowPages == nil {
			as.lowPages = make(map[memaddr.VPN]mapping)
		}
		as.lowPages[vpn] = m
		return
	}
	li := idx >> leafBits
	if li >= uint64(len(as.dir)) {
		grown := make([]*pageLeaf, li+1+li/2)
		copy(grown, as.dir)
		as.dir = grown
	}
	if as.dir[li] == nil {
		as.dir[li] = new(pageLeaf)
	}
	as.dir[li][idx&(leafSize-1)] = m
}

// clearPage removes the mapping for vpn (no-op if absent).
func (as *AddressSpace) clearPage(vpn memaddr.VPN) {
	idx := uint64(vpn) - dirBase
	if idx >= uint64(len(as.dir))<<leafBits {
		delete(as.lowPages, vpn)
		return
	}
	if leaf := as.dir[idx>>leafBits]; leaf != nil {
		leaf[idx&(leafSize-1)] = mapping{}
	}
}

// THP reports whether transparent huge pages are enabled.
func (as *AddressSpace) THP() bool { return as.thp }

// Stats returns a copy of the address-space event counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// Mmap reserves size bytes of virtual address space and returns the
// base address. Nothing is allocated until first touch. Large regions
// are 2 MiB-aligned, as glibc's allocator arranges for big mappings,
// which is what makes them THP-eligible.
func (as *AddressSpace) Mmap(size uint64) memaddr.VAddr {
	if size == 0 {
		panic("vm: Mmap of zero bytes")
	}
	size = memaddr.AlignUp(size, memaddr.PageBytes)
	base := as.next
	if size >= memaddr.HugePageBytes {
		base = memaddr.VAddr(memaddr.AlignUp(uint64(base), memaddr.HugePageBytes))
	}
	as.vmas = append(as.vmas, vma{base: base, size: size})
	// Leave a one-page guard gap between VMAs so adjacent regions never
	// share a huge-page-sized range.
	as.next = base + memaddr.VAddr(size) + memaddr.PageBytes
	return base
}

// vmaIndex returns the index of the last VMA whose base is <= v, or -1.
// Mmap hands out strictly ascending bases, so vmas is sorted by base
// and a binary search finds it (churn-heavy profiles hold thousands of
// small chunks; a linear scan per fault or unmap would dominate).
func (as *AddressSpace) vmaIndex(v memaddr.VAddr) int {
	return sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].base > v }) - 1
}

// Munmap releases a previously mapped region, returning its frames to
// the buddy allocator. The base/size must exactly match a prior Mmap.
// Unmapping the lowest VMA is O(1) in the VMA count, so releasing a
// whole address space in Mmap order is linear overall.
func (as *AddressSpace) Munmap(base memaddr.VAddr, size uint64) error {
	size = memaddr.AlignUp(size, memaddr.PageBytes)
	idx := as.vmaIndex(base)
	if idx < 0 || as.vmas[idx].base != base || as.vmas[idx].size != size {
		return fmt.Errorf("vm: Munmap(%#x, %d): no such mapping", base, size)
	}
	if idx == 0 {
		as.vmas = as.vmas[1:]
	} else {
		as.vmas = append(as.vmas[:idx], as.vmas[idx+1:]...)
	}

	// Free huge regions wholly inside the VMA.
	firstHuge := uint64(base) >> memaddr.HugePageShift
	lastHuge := (uint64(base) + size - 1) >> memaddr.HugePageShift
	for h := firstHuge; h <= lastHuge; h++ {
		if pfn, ok := as.huge[h]; ok {
			delete(as.huge, h)
			as.phys.Free(pfn, HugeOrder)
			as.stats.MappedHuge--
			// Remove the 4 KiB page-table shadows for the region.
			baseVPN := memaddr.VPN(h << memaddr.HugeExtraBits)
			for i := memaddr.VPN(0); i < 512; i++ {
				as.clearPage(baseVPN + i)
				as.stats.MappedPages--
			}
		}
	}
	// Free remaining 4 KiB pages.
	firstVPN := base.PageNum()
	lastVPN := (base + memaddr.VAddr(size) - 1).PageNum()
	for vpn := firstVPN; vpn <= lastVPN; vpn++ {
		if m := as.page(vpn); m.valid && !m.huge {
			as.clearPage(vpn)
			as.phys.Free(m.pfn, 0)
			as.stats.MappedPages--
		}
	}
	return nil
}

// hugeEligible reports whether the 2 MiB range containing v can be
// promoted: it must lie inside a single VMA and contain no mapped pages.
func (as *AddressSpace) hugeEligible(v memaddr.VAddr) bool {
	if !as.thp {
		return false
	}
	h := uint64(v) >> memaddr.HugePageShift
	regionBase := memaddr.VAddr(h << memaddr.HugePageShift)
	i := as.vmaIndex(v)
	if i < 0 || !as.vmas[i].contains(v) {
		return false
	}
	owner := &as.vmas[i]
	if regionBase < owner.base ||
		uint64(regionBase)+memaddr.HugePageBytes > uint64(owner.base)+owner.size {
		return false
	}
	baseVPN := regionBase.PageNum()
	// A 2 MiB region is exactly one leaf of the flat page table (both are
	// 512 pages and MmapBase is 2 MiB-aligned): a nil leaf means the whole
	// region is unmapped, and a populated one can be scanned directly.
	if idx := uint64(baseVPN) - dirBase; idx&(leafSize-1) == 0 && idx < uint64(len(as.dir))<<leafBits {
		leaf := as.dir[idx>>leafBits]
		if leaf == nil {
			return true
		}
		for j := range leaf {
			if leaf[j].valid {
				return false
			}
		}
		return true
	}
	for i := memaddr.VPN(0); i < 512; i++ {
		if as.page(baseVPN + i).valid {
			return false
		}
	}
	return true
}

// Translate resolves a virtual address, faulting in physical memory on
// first touch. It returns the physical address and whether the backing
// page is huge. Translation fails only if physical memory is exhausted,
// which the experiments never allow.
func (as *AddressSpace) Translate(v memaddr.VAddr) (memaddr.PAddr, bool, error) {
	vpn := v.PageNum()
	// Fast path: a mapped page resolves with two array dereferences.
	if m := as.page(vpn); m.valid {
		return m.pfn.Addr(v.Offset()), m.huge, nil
	}
	if as.aliases != nil {
		if canon, ok := as.aliases[vpn]; ok {
			// Synonym: resolve through the canonical page (faulting it in
			// if needed), preserving the alias's own offset.
			pa, huge, err := as.Translate(canon.Addr(v.Offset()))
			return pa, huge, err
		}
	}
	// Fault path.
	as.stats.Faults++
	if as.hugeEligible(v) {
		if base, ok := as.phys.AllocHuge(); ok {
			as.installHuge(v, base)
			as.stats.HugeFaults++
			m := as.page(vpn)
			return m.pfn.Addr(v.Offset()), true, nil
		}
		as.stats.HugeFallbacks++
	}
	var pfn memaddr.PFN
	var ok bool
	if as.colored {
		var colored bool
		var err error
		pfn, colored, err = as.phys.AllocColored(uint64(vpn))
		if err != nil {
			return 0, false, err
		}
		if colored {
			as.coloring.Colored++
		} else {
			as.coloring.Fallbacks++
		}
		ok = true
	} else {
		pfn, ok = as.phys.Alloc()
	}
	if !ok {
		return 0, false, fmt.Errorf("vm: out of physical memory translating %#x", uint64(v))
	}
	as.setPage(vpn, mapping{pfn: pfn, valid: true})
	as.stats.MappedPages++
	return pfn.Addr(v.Offset()), false, nil
}

// MapAlias creates synonym mappings: size bytes starting at alias
// resolve to the same physical pages as the range starting at target
// (both page-aligned). This is the OS behaviour that makes VIVT caches
// hard (Sec. II-B) and that SIPT handles for free, because contents are
// physically indexed and tagged.
func (as *AddressSpace) MapAlias(alias, target memaddr.VAddr, size uint64) error {
	if alias.Offset() != 0 || target.Offset() != 0 {
		return fmt.Errorf("vm: MapAlias requires page-aligned addresses")
	}
	if as.aliases == nil {
		as.aliases = make(map[memaddr.VPN]memaddr.VPN)
	}
	pages := memaddr.AlignUp(size, memaddr.PageBytes) / memaddr.PageBytes
	for i := memaddr.VPN(0); i < memaddr.VPN(pages); i++ {
		avpn := alias.PageNum() + i
		if as.page(avpn).valid {
			return fmt.Errorf("vm: alias page %#x already mapped", uint64(avpn))
		}
		if _, aliased := as.aliases[avpn]; aliased {
			return fmt.Errorf("vm: alias page %#x already aliased", uint64(avpn))
		}
		as.aliases[avpn] = target.PageNum() + i
	}
	return nil
}

// installHuge maps the 2 MiB region containing v to the 512-frame
// physical block starting at base, shadowing each 4 KiB page so
// Translate stays a single map lookup.
func (as *AddressSpace) installHuge(v memaddr.VAddr, base memaddr.PFN) {
	h := uint64(v) >> memaddr.HugePageShift
	as.huge[h] = base
	as.stats.MappedHuge++
	baseVPN := memaddr.VPN(h << memaddr.HugeExtraBits)
	for i := memaddr.VPN(0); i < 512; i++ {
		as.setPage(baseVPN+i, mapping{pfn: base + memaddr.PFN(i), huge: true, valid: true})
		as.stats.MappedPages++
	}
}

// Lookup resolves a virtual address without faulting. ok is false if
// the page is unmapped.
func (as *AddressSpace) Lookup(v memaddr.VAddr) (pa memaddr.PAddr, huge, ok bool) {
	m := as.page(v.PageNum())
	if !m.valid {
		return 0, false, false
	}
	return m.pfn.Addr(v.Offset()), m.huge, true
}

// Touch pre-faults every page in [base, base+size), as a workload's
// initialisation phase would. Faulting order is ascending, matching a
// memset/stream-init access pattern.
func (as *AddressSpace) Touch(base memaddr.VAddr, size uint64) error {
	for off := uint64(0); off < size; off += memaddr.PageBytes {
		if _, _, err := as.Translate(base + memaddr.VAddr(off)); err != nil {
			return err
		}
	}
	return nil
}

// VMAs returns the current virtual memory areas, sorted by base (the
// order Mmap created them in), for inspection by tools and tests.
func (as *AddressSpace) VMAs() []struct {
	Base memaddr.VAddr
	Size uint64
} {
	out := make([]struct {
		Base memaddr.VAddr
		Size uint64
	}, len(as.vmas))
	for i, a := range as.vmas {
		out[i].Base = a.base
		out[i].Size = a.size
	}
	return out
}
