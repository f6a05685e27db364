package vm

import (
	"fmt"

	"sipt/internal/memaddr"
)

// refBuddy is a plain reference copy of Buddy: the same per-order LIFO
// stacks with lazy deletion, but the free map is a Go map from block
// start to order. It exists so the fuzz targets can require the real
// allocator to hand out exactly the same frames, in the same order,
// whatever representation its free map uses.
type refBuddy struct {
	frames uint64
	free   uint64
	stacks [MaxOrder + 1][]uint64
	freeAt map[uint64]int // block start -> order, for free blocks only
	counts [MaxOrder + 1]uint64
}

func newRefBuddy(frames uint64) *refBuddy {
	b := &refBuddy{frames: frames, freeAt: make(map[uint64]int)}
	for start := uint64(0); start < frames; {
		order := MaxOrder
		for order > 0 && (start&(1<<order-1) != 0 || start+1<<order > frames) {
			order--
		}
		b.push(start, order)
		b.free += 1 << order
		start += 1 << order
	}
	return b
}

func (b *refBuddy) push(start uint64, order int) {
	b.freeAt[start] = order
	b.counts[order]++
	b.stacks[order] = append(b.stacks[order], start)
}

func (b *refBuddy) drop(start uint64, order int) {
	delete(b.freeAt, start)
	b.counts[order]--
}

func (b *refBuddy) AllocOrder(order int) (memaddr.PFN, bool) {
	for o := order; o <= MaxOrder; o++ {
		for len(b.stacks[o]) > 0 {
			s := b.stacks[o]
			start := s[len(s)-1]
			b.stacks[o] = s[:len(s)-1]
			if got, ok := b.freeAt[start]; !ok || got != o {
				continue // stale entry
			}
			b.drop(start, o)
			for o > order {
				o--
				b.push(start+1<<o, o)
			}
			b.free -= 1 << order
			return memaddr.PFN(start), true
		}
	}
	return 0, false
}

func (b *refBuddy) Free(pfn memaddr.PFN, order int) {
	start := uint64(pfn)
	if _, dup := b.freeAt[start]; dup {
		panic(fmt.Sprintf("refBuddy: double free of block %#x", start))
	}
	b.free += 1 << order
	for order < MaxOrder {
		buddy := start ^ 1<<order
		o, ok := b.freeAt[buddy]
		if !ok || o != order || buddy+1<<order > b.frames {
			break
		}
		b.drop(buddy, order)
		if buddy < start {
			start = buddy
		}
		order++
	}
	b.push(start, order)
}

// refSpace is a plain reference model of AddressSpace without page
// coloring or aliases: VMAs in a slice searched linearly, one Go map as
// the page table, and the same THP promotion rule and frame release
// order (huge regions first, then 4 KiB pages ascending).
type refSpace struct {
	phys  *refBuddy
	thp   bool
	vmas  []vma // in Mmap order
	pages map[memaddr.VPN]mapping
	huge  map[uint64]memaddr.PFN // VA>>21 -> base PFN
	next  memaddr.VAddr
	stats Stats
}

func newRefSpace(phys *refBuddy, thp bool) *refSpace {
	return &refSpace{
		phys:  phys,
		thp:   thp,
		pages: make(map[memaddr.VPN]mapping),
		huge:  make(map[uint64]memaddr.PFN),
		next:  MmapBase,
	}
}

func (as *refSpace) Mmap(size uint64) memaddr.VAddr {
	size = memaddr.AlignUp(size, memaddr.PageBytes)
	base := as.next
	if size >= memaddr.HugePageBytes {
		base = memaddr.VAddr(memaddr.AlignUp(uint64(base), memaddr.HugePageBytes))
	}
	as.vmas = append(as.vmas, vma{base: base, size: size})
	as.next = base + memaddr.VAddr(size) + memaddr.PageBytes
	return base
}

func (as *refSpace) Munmap(base memaddr.VAddr, size uint64) error {
	size = memaddr.AlignUp(size, memaddr.PageBytes)
	for i, a := range as.vmas {
		if a.base != base || a.size != size {
			continue
		}
		as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
		end := uint64(base) + size
		for h := uint64(base) >> memaddr.HugePageShift; h <= (end-1)>>memaddr.HugePageShift; h++ {
			pfn, ok := as.huge[h]
			if !ok {
				continue
			}
			delete(as.huge, h)
			as.phys.Free(pfn, HugeOrder)
			as.stats.MappedHuge--
			for i := uint64(0); i < 512; i++ {
				delete(as.pages, memaddr.VPN(h<<memaddr.HugeExtraBits+i))
				as.stats.MappedPages--
			}
		}
		for vpn := base.PageNum(); vpn <= memaddr.VAddr(end-1).PageNum(); vpn++ {
			if m, ok := as.pages[vpn]; ok && !m.huge {
				delete(as.pages, vpn)
				as.phys.Free(m.pfn, 0)
				as.stats.MappedPages--
			}
		}
		return nil
	}
	return fmt.Errorf("refSpace: Munmap(%#x, %d): no such mapping", base, size)
}

func (as *refSpace) Translate(v memaddr.VAddr) (memaddr.PAddr, bool, error) {
	vpn := v.PageNum()
	if m, ok := as.pages[vpn]; ok {
		return m.pfn.Addr(v.Offset()), m.huge, nil
	}
	as.stats.Faults++
	if as.hugeEligible(v) {
		if base, ok := as.phys.AllocOrder(HugeOrder); ok {
			h := uint64(v) >> memaddr.HugePageShift
			as.huge[h] = base
			as.stats.HugeFaults++
			as.stats.MappedHuge++
			for i := uint64(0); i < 512; i++ {
				as.pages[memaddr.VPN(h<<memaddr.HugeExtraBits+i)] = mapping{pfn: base + memaddr.PFN(i), huge: true, valid: true}
				as.stats.MappedPages++
			}
			return as.pages[vpn].pfn.Addr(v.Offset()), true, nil
		}
		as.stats.HugeFallbacks++
	}
	pfn, ok := as.phys.AllocOrder(0)
	if !ok {
		return 0, false, fmt.Errorf("refSpace: out of physical memory translating %#x", uint64(v))
	}
	as.pages[vpn] = mapping{pfn: pfn, valid: true}
	as.stats.MappedPages++
	return pfn.Addr(v.Offset()), false, nil
}

// hugeEligible: the 2 MiB region around v lies inside the one VMA that
// contains v, and none of its 512 pages is mapped.
func (as *refSpace) hugeEligible(v memaddr.VAddr) bool {
	if !as.thp {
		return false
	}
	region := uint64(v) &^ (memaddr.HugePageBytes - 1)
	for _, a := range as.vmas {
		if !a.contains(v) {
			continue
		}
		if region < uint64(a.base) || region+memaddr.HugePageBytes > uint64(a.base)+a.size {
			return false
		}
		for i := uint64(0); i < 512; i++ {
			if _, ok := as.pages[memaddr.VAddr(region+i*memaddr.PageBytes).PageNum()]; ok {
				return false
			}
		}
		return true
	}
	return false
}
