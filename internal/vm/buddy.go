// Package vm models the operating-system memory-management substrate
// the paper's traces were collected under: a Linux-style buddy
// allocator for physical frames, per-process address spaces with
// demand (first-touch) allocation, transparent huge pages, and a
// physical-memory fragmenter with the unusable-free-space index used
// in the paper's sensitivity study (Sec. VII-B).
//
// SIPT's index-bit predictability comes from the structure this
// substrate produces: the buddy allocator hands out physically
// contiguous runs for bursts of allocations, so contiguous virtual
// ranges map with a constant VA->PA delta.
package vm

import (
	"fmt"

	"sipt/internal/memaddr"
)

// MaxOrder is the largest buddy order (Linux: blocks of 2^10 = 1024
// contiguous 4 KiB frames, i.e. 4 MiB).
const MaxOrder = 10

// HugeOrder is the buddy order of a 2 MiB huge page (512 frames).
const HugeOrder = memaddr.HugeExtraBits

// Buddy is a binary-buddy physical page allocator.
//
// Free blocks are kept in per-order LIFO stacks with lazy deletion: the
// authoritative state is the free map (block start frame -> order), and
// stack entries are validated against it when popped. This keeps
// alloc/free O(1) amortised while still supporting O(1) buddy
// coalescing. The free map is dense, one byte per frame, so every
// alloc, free and coalesce step is an array index rather than a hash.
type Buddy struct {
	frames uint64 // total frames managed
	free   uint64 // total free frames
	stacks [MaxOrder + 1][]uint64
	freeAt []int8               // per frame: order+1 if a free block starts there, else 0
	counts [MaxOrder + 1]uint64 // free blocks per order, kept in sync with freeAt
}

// NewBuddy creates an allocator managing the given number of 4 KiB
// frames, all initially free. The frame count need not be a power of
// two; the initial free list is built from maximal aligned blocks.
func NewBuddy(frames uint64) *Buddy {
	b := &Buddy{
		frames: frames,
		freeAt: make([]int8, frames),
	}
	start := uint64(0)
	for start < frames {
		order := MaxOrder
		// The block must be aligned to its size and fit in the
		// remaining range.
		for order > 0 && (start&(1<<order-1) != 0 || start+1<<order > frames) {
			order--
		}
		b.pushFree(start, order)
		b.free += 1 << order
		start += 1 << order
	}
	return b
}

// Frames returns the total number of frames managed.
func (b *Buddy) Frames() uint64 { return b.frames }

// FreeFrames returns the number of currently free frames.
func (b *Buddy) FreeFrames() uint64 { return b.free }

func (b *Buddy) pushFree(start uint64, order int) {
	b.freeAt[start] = int8(order + 1)
	b.counts[order]++
	b.stacks[order] = append(b.stacks[order], start)
}

// isFree reports whether a free block of exactly the given order starts
// at frame start (false for frames beyond the end of memory).
func (b *Buddy) isFree(start uint64, order int) bool {
	return start < uint64(len(b.freeAt)) && b.freeAt[start] == int8(order+1)
}

// dropFree removes a free block from the authoritative map (its stack
// entry, if any, goes stale and is discarded lazily).
func (b *Buddy) dropFree(start uint64, order int) {
	b.freeAt[start] = 0
	b.counts[order]--
}

// popFree pops a valid free block of exactly the given order, or
// returns false. Stale stack entries (blocks that were coalesced away
// or split since being pushed) are discarded as they surface.
func (b *Buddy) popFree(order int) (uint64, bool) {
	s := b.stacks[order]
	for len(s) > 0 {
		start := s[len(s)-1]
		s = s[:len(s)-1]
		if b.isFree(start, order) {
			b.dropFree(start, order)
			b.stacks[order] = s
			return start, true
		}
	}
	b.stacks[order] = s
	return 0, false
}

// AllocOrder allocates a block of 2^order contiguous frames, returning
// the first frame number. It fails (ok == false) only when no block of
// that order can be assembled, matching Linux behaviour where a
// fragmented system can have plenty of free memory but no large blocks.
func (b *Buddy) AllocOrder(order int) (memaddr.PFN, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("vm: AllocOrder(%d) out of range", order))
	}
	// Find the smallest order >= requested with a free block.
	for o := order; o <= MaxOrder; o++ {
		start, ok := b.popFree(o)
		if !ok {
			continue
		}
		// Split down to the requested order, freeing upper halves.
		// Returning the lower half keeps sequential allocations
		// physically sequential, which is what gives buddy systems
		// their VA->PA contiguity.
		for o > order {
			o--
			b.pushFree(start+1<<o, o)
		}
		b.free -= 1 << order
		return memaddr.PFN(start), true
	}
	return 0, false
}

// Alloc allocates a single 4 KiB frame.
func (b *Buddy) Alloc() (memaddr.PFN, bool) { return b.AllocOrder(0) }

// AllocHuge allocates a 2 MiB-aligned block of 512 frames.
func (b *Buddy) AllocHuge() (memaddr.PFN, bool) { return b.AllocOrder(HugeOrder) }

// Free returns a block of 2^order frames starting at pfn to the
// allocator, coalescing with free buddies as far as possible.
func (b *Buddy) Free(pfn memaddr.PFN, order int) {
	start := uint64(pfn)
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("vm: Free order %d out of range", order))
	}
	if start&(1<<order-1) != 0 {
		panic(fmt.Sprintf("vm: Free(%#x, %d): block not aligned to order", start, order))
	}
	if start+1<<order > b.frames {
		panic(fmt.Sprintf("vm: Free(%#x, %d): block beyond end of memory", start, order))
	}
	if b.freeAt[start] != 0 {
		panic(fmt.Sprintf("vm: double free of block %#x", start))
	}
	b.free += 1 << order
	for order < MaxOrder {
		buddy := start ^ 1<<order
		if !b.isFree(buddy, order) {
			break
		}
		// Merge: remove the buddy (its stack entry goes stale) and
		// continue one order up from the pair's base.
		b.dropFree(buddy, order)
		if buddy < start {
			start = buddy
		}
		order++
	}
	b.pushFree(start, order)
}

// FreeBlockCounts returns k_i, the number of free blocks currently held
// at each order i. This is the input to the unusable free space index.
// The counts are maintained incrementally alongside the free map, so
// the result is deterministic and O(1) regardless of heap state.
func (b *Buddy) FreeBlockCounts() [MaxOrder + 1]uint64 {
	return b.counts
}

// UnusableFreeIndex computes Gorman & Whitcroft's unusable free space
// index Fu(j) for a desired allocation of order j:
//
//	Fu(j) = (TotalFree - sum_{i=j}^{n} 2^i * k_i) / TotalFree
//
// 0 means any free memory can service an order-j request; 1 means no
// order-j block exists at all. The paper keeps Fu(HugeOrder) > 0.95 for
// its fragmented-memory experiments.
func (b *Buddy) UnusableFreeIndex(j int) float64 {
	if b.free == 0 {
		return 0
	}
	counts := b.FreeBlockCounts()
	var usable uint64
	for i := j; i <= MaxOrder; i++ {
		usable += counts[i] << uint(i)
	}
	return float64(b.free-usable) / float64(b.free)
}

// checkInvariants validates internal consistency; used by tests.
func (b *Buddy) checkInvariants() error {
	if uint64(len(b.freeAt)) != b.frames {
		return fmt.Errorf("free map covers %d frames, allocator manages %d", len(b.freeAt), b.frames)
	}
	var total uint64
	var mapCounts [MaxOrder + 1]uint64
	// No two free blocks may overlap: every frame in every free block
	// must be covered exactly once; verify by marking.
	seen := make([]bool, b.frames)
	for i, v := range b.freeAt {
		if v == 0 {
			continue
		}
		start, order := uint64(i), int(v)-1
		if order < 0 || order > MaxOrder {
			return fmt.Errorf("free block %#x has order %d", start, order)
		}
		if start&(1<<order-1) != 0 {
			return fmt.Errorf("free block %#x misaligned for order %d", start, order)
		}
		if start+1<<order > b.frames {
			return fmt.Errorf("free block %#x order %d beyond end", start, order)
		}
		for f := start; f < start+1<<order; f++ {
			if seen[f] {
				return fmt.Errorf("frame %#x covered by two free blocks", f)
			}
			seen[f] = true
		}
		total += 1 << order
		mapCounts[order]++
	}
	if total != b.free {
		return fmt.Errorf("free accounting mismatch: map says %d, counter says %d", total, b.free)
	}
	if mapCounts != b.counts {
		return fmt.Errorf("free block counts out of sync: map says %v, incremental says %v", mapCounts, b.counts)
	}
	return nil
}
