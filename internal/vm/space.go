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
	// dirBase (never produced by Mmap) fall back to lowPages. A nil leaf
	// maps nothing; a leaf whose first entry is huge is one whole 2 MiB
	// huge mapping (see installHuge).
	dir      []*pageLeaf
	lowPages map[memaddr.VPN]mapping
	// spare holds leaves that Munmap and Reset took out of dir, for
	// leafAt to reuse instead of allocating; they may hold stale
	// mappings until leafAt zeroes them.
	spare []*pageLeaf
	vmas  []vma
	// vmaBuf is vmas' backing array from its start: Munmap drops the
	// lowest VMA by reslicing vmas, and Reset rewinds to vmaBuf so a
	// torn-down space reuses the whole array.
	vmaBuf []vma
	next   memaddr.VAddr // next mmap base
	stats  Stats

	// colored enables page-colored allocation (see coloring.go).
	colored  bool
	coloring ColoringStats
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
	return &AddressSpace{phys: phys, thp: thp, next: MmapBase}
}

// Reset empties the address space for a new process on the same
// system, leaving it as NewAddressSpace would: no VMAs, the next Mmap
// at MmapBase, zeroed stats. Pages still mapped are dropped without
// returning their frames to the allocator, exactly as discarding the
// space would drop them, so callers Munmap every VMA first. The
// page-table leaves are kept for later faults to reuse.
func (as *AddressSpace) Reset() {
	for li, leaf := range as.dir {
		if leaf != nil {
			as.releaseLeaf(uint64(li))
		}
	}
	as.lowPages = nil
	as.vmas = as.vmaBuf
	as.next = MmapBase
	as.stats = Stats{}
	as.coloring = ColoringStats{}
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
	as.leafAt(idx >> leafBits)[idx&(leafSize-1)] = m
}

// leafAt returns leaf li of the page table, growing the directory and
// installing an empty leaf as needed: a spare one, zeroed, when there
// is one.
func (as *AddressSpace) leafAt(li uint64) *pageLeaf {
	if li >= uint64(len(as.dir)) {
		grown := make([]*pageLeaf, li+1+li/2)
		copy(grown, as.dir)
		as.dir = grown
	}
	if as.dir[li] != nil {
		return as.dir[li]
	}
	var leaf *pageLeaf
	if n := len(as.spare); n > 0 {
		leaf = as.spare[n-1]
		as.spare = as.spare[:n-1]
		*leaf = pageLeaf{}
	} else {
		leaf = new(pageLeaf)
	}
	as.dir[li] = leaf
	return leaf
}

// releaseLeaf moves leaf li out of the page table onto the spare list,
// so its 2 MiB range reads as unmapped again.
func (as *AddressSpace) releaseLeaf(li uint64) {
	as.spare = append(as.spare, as.dir[li])
	as.dir[li] = nil
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
	grown := len(as.vmas) == cap(as.vmas)
	as.vmas = append(as.vmas, vma{base: base, size: size})
	if grown {
		as.vmaBuf = as.vmas[:0]
	}
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
// the buddy allocator: its huge regions first, each as one whole leaf,
// then its 4 KiB pages in ascending order. The base/size must exactly
// match a prior Mmap. Unmapping the lowest VMA is O(1) in the VMA
// count, and the 4 KiB sweep skips leaves that map nothing, so
// releasing a whole address space in Mmap order costs what it maps.
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

	// Page-table indices of the VMA's first and last pages. Mmap bases
	// start at MmapBase, so neither is below dirBase. A huge region lies
	// wholly inside its VMA, and VMAs never overlap, so every huge leaf
	// in this range belongs to this VMA.
	first := uint64(base.PageNum()) - dirBase
	last := uint64((base + memaddr.VAddr(size) - 1).PageNum()) - dirBase
	end := min(last>>leafBits+1, uint64(len(as.dir))) // leaves past dir map nothing
	for li := first >> leafBits; li < end; li++ {
		if leaf := as.dir[li]; leaf != nil && leaf[0].huge {
			as.phys.Free(leaf[0].pfn, HugeOrder)
			as.releaseLeaf(li)
			as.stats.MappedHuge--
			as.stats.MappedPages -= leafSize
		}
	}
	for li := first >> leafBits; li < end; li++ {
		leaf := as.dir[li]
		if leaf == nil {
			continue
		}
		lo, hi := uint64(0), uint64(leafSize-1)
		if li == first>>leafBits {
			lo = first & (leafSize - 1)
		}
		if li == last>>leafBits {
			hi = last & (leafSize - 1)
		}
		for j := lo; j <= hi; j++ {
			if m := leaf[j]; m.valid {
				leaf[j] = mapping{}
				as.phys.Free(m.pfn, 0)
				as.stats.MappedPages--
			}
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

// installHuge maps the 2 MiB region containing v to the 512-frame
// physical block starting at base. The region is exactly one leaf of
// the page table (MmapBase is 2 MiB-aligned and hugeEligible keeps v
// inside a VMA), so it writes that leaf directly, one entry per 4 KiB
// page, and Translate stays two array dereferences.
func (as *AddressSpace) installHuge(v memaddr.VAddr, base memaddr.PFN) {
	leaf := as.leafAt((uint64(v.PageNum()) - dirBase) >> leafBits)
	for i := range leaf {
		leaf[i] = mapping{pfn: base + memaddr.PFN(i), huge: true, valid: true}
	}
	as.stats.MappedHuge++
	as.stats.MappedPages += leafSize
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
// memset/stream-init access pattern. A page mapped huge means its whole
// 2 MiB region is mapped, so Touch resumes at the next 2 MiB boundary
// instead of translating the region's remaining pages, which could
// neither fault nor change anything.
func (as *AddressSpace) Touch(base memaddr.VAddr, size uint64) error {
	for off := uint64(0); off < size; off += memaddr.PageBytes {
		v := base + memaddr.VAddr(off)
		_, huge, err := as.Translate(v)
		if err != nil {
			return err
		}
		if huge {
			// Step to the region's last page; the loop steps past it.
			off += (memaddr.HugePageBytes - 1 - uint64(v)&(memaddr.HugePageBytes-1)) &^ (memaddr.PageBytes - 1)
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
