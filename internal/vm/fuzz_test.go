package vm

import (
	"reflect"
	"testing"

	"sipt/internal/memaddr"
)

// FuzzBuddy drives the buddy allocator with a fuzz-chosen alloc/free
// sequence, checking after every operation that the free map, the free
// counter, the incremental per-order block counts, and the returned
// blocks all stay consistent, and that refBuddy, driven with the same
// operations, hands out the same frames and holds the same block counts.
func FuzzBuddy(f *testing.F) {
	f.Add([]byte{0x01, 0x03, 0x01, 0x00, 0x02, 0x00, 0x01, 0x0a})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x01, 0x05, 0x02, 0x01})
	// Many single frames, then frees that coalesce out of order.
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x01,
		0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const frames = 1 << 12
		b := NewBuddy(frames)
		ref := newRefBuddy(frames)
		type block struct {
			pfn   memaddr.PFN
			order int
		}
		var live []block

		for i := 0; i+1 < len(data) && i < 256; i += 2 {
			op, arg := data[i], data[i+1]
			if op&1 == 0 && len(live) > 0 {
				// Free a live block chosen by the fuzzer.
				j := int(arg) % len(live)
				blk := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				b.Free(blk.pfn, blk.order)
				ref.Free(blk.pfn, blk.order)
			} else {
				order := int(arg) % (MaxOrder + 1)
				before := b.FreeFrames()
				pfn, ok := b.AllocOrder(order)
				if rpfn, rok := ref.AllocOrder(order); pfn != rpfn || ok != rok {
					t.Fatalf("op %d: AllocOrder(%d) = (%#x, %v), reference (%#x, %v)",
						i/2, order, uint64(pfn), ok, uint64(rpfn), rok)
				}
				if !ok {
					if before >= frames {
						t.Fatalf("alloc order %d failed with all %d frames free", order, before)
					}
					continue
				}
				if uint64(pfn)&(1<<order-1) != 0 {
					t.Fatalf("alloc order %d returned misaligned frame %#x", order, uint64(pfn))
				}
				if uint64(pfn)+1<<order > frames {
					t.Fatalf("alloc order %d returned out-of-range frame %#x", order, uint64(pfn))
				}
				for _, blk := range live {
					aStart, aEnd := uint64(pfn), uint64(pfn)+1<<order
					bStart, bEnd := uint64(blk.pfn), uint64(blk.pfn)+1<<blk.order
					if aStart < bEnd && bStart < aEnd {
						t.Fatalf("alloc %#x+%d overlaps live block %#x+%d",
							aStart, order, bStart, blk.order)
					}
				}
				live = append(live, block{pfn, order})
			}
			if err := b.checkInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
			if b.FreeBlockCounts() != ref.counts || b.FreeFrames() != ref.free {
				t.Fatalf("after op %d: block counts %v (%d free), reference %v (%d free)",
					i/2, b.FreeBlockCounts(), b.FreeFrames(), ref.counts, ref.free)
			}
			var allocated uint64
			for _, blk := range live {
				allocated += 1 << blk.order
			}
			if b.FreeFrames()+allocated != frames {
				t.Fatalf("leak: free %d + allocated %d != %d", b.FreeFrames(), allocated, frames)
			}
		}

		// Everything freed must coalesce back to the initial state.
		for _, blk := range live {
			b.Free(blk.pfn, blk.order)
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if b.FreeFrames() != frames {
			t.Fatalf("free frames = %d after releasing all, want %d", b.FreeFrames(), frames)
		}
		counts := b.FreeBlockCounts()
		for order, n := range counts {
			want := uint64(0)
			if order == MaxOrder {
				want = frames >> MaxOrder
			}
			if n != want {
				t.Fatalf("order %d: %d free blocks after full coalesce, want %d", order, n, want)
			}
		}
	})
}

// FuzzAddressSpaceMatchesReference drives a fuzz-chosen sequence of
// Mmap, Touch, Translate, Lookup and Munmap calls through AddressSpace
// over a Buddy and through refSpace over a refBuddy built identically,
// and requires the same physical address and huge flag from every
// translation, the same errors, and equal Stats, VMAs and free block
// counts after every operation. Because frames return to the buddy in
// a fixed order, any change to the release order shows up as a
// different frame on a later fault. One operation unmaps every VMA and
// Resets the space for reuse, which must behave exactly as a new
// refSpace on the same allocator: a page-table leaf reused with stale
// entries, or a Touch that skips a region it did not map huge, shows
// up as a different translation.
//
//	go test -run='^$' -fuzz=FuzzAddressSpaceMatchesReference ./internal/vm/
func FuzzAddressSpaceMatchesReference(f *testing.F) {
	// THP on: big regions touched (huge faults), small ones translated
	// sparsely, then unmapped out of order and remapped.
	f.Add([]byte{0x01, 0x00,
		0x00, 0x83, 0x00, 0x00, 0x05, 0x00, 0x00, 0x81, 0x00,
		0x01, 0x00, 0x00, 0x02, 0x01, 0x40, 0x02, 0x02, 0x10,
		0x03, 0x01, 0x00, 0x01, 0x02, 0x00, 0x03, 0x00, 0x00,
		0x00, 0x84, 0x00, 0x01, 0x02, 0x00, 0x04, 0x20, 0x33})
	// THP off, small memory: touches run out of frames, and a stray
	// translation beyond the last VMA lands inside the next one mapped.
	f.Add([]byte{0x20, 0x00,
		0x00, 0x0f, 0x00, 0x01, 0x00, 0x00, 0x00, 0x82, 0x00,
		0x01, 0x01, 0x00, 0x05, 0x08, 0x00, 0x00, 0x03, 0x00,
		0x02, 0x02, 0x05, 0x03, 0x00, 0x00, 0x03, 0x07, 0x00})
	// THP off: two chunks touched page by page in turn, so their frames
	// interleave; unmapping the first frees frames whose buddies are
	// still held, and the next faults reveal the order they went back in.
	f.Add([]byte{0x20, 0x00,
		0x00, 0x03, 0x00, 0x00, 0x03, 0x00,
		0x02, 0x00, 0x00, 0x02, 0x01, 0x00, 0x02, 0x00, 0x01,
		0x02, 0x01, 0x01, 0x02, 0x00, 0x02, 0x02, 0x01, 0x02,
		0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x01, 0x01, 0x00})
	// A fragmented allocator: many small chunks touched, every other
	// one unmapped, then a huge-eligible region that must fall back.
	frag := []byte{0x41, 0x00}
	for i := byte(0); i < 24; i++ {
		frag = append(frag, 0x00, 0x07, 0x00, 0x01, i, 0x00)
	}
	for i := byte(0); i < 24; i += 2 {
		frag = append(frag, 0x03, i/2, 0x00)
	}
	frag = append(frag, 0x00, 0x85, 0x00, 0x01, 0xff, 0x00, 0x02, 0xff, 0x99)
	f.Add(frag)
	// THP on: a stray fault inside a future big VMA makes its first
	// region fall back to 4 KiB while Touch promotes the second; a
	// second VMA is touched from 128 KiB into its first region, which
	// promotes, so Touch resumes at the next 2 MiB boundary.
	f.Add([]byte{0x1f, 0x00,
		0x02, 0x00, 0x85, 0x00, 0x83, 0x00, 0x01, 0x00, 0x00,
		0x00, 0x83, 0x00, 0x01, 0x01, 0x88, 0x04, 0x01, 0x10,
		0x03, 0x00, 0x00, 0x00, 0x81, 0x00, 0x01, 0x01, 0x00})
	// THP on: reuse after huge mappings, so a small chunk's 4 KiB
	// faults land in a recycled huge leaf; then reuse after a stray page,
	// so the next small chunk's leaf is the one that held it.
	f.Add([]byte{0x1f, 0x00,
		0x00, 0x83, 0x00, 0x01, 0x00, 0x00, 0x05, 0x00, 0x00,
		0x00, 0x07, 0x00, 0x01, 0x00, 0x02, 0x02, 0x00, 0x80, 0x04, 0x00, 0x05,
		0x00, 0x83, 0x00, 0x01, 0x01, 0x00, 0x05, 0x00, 0x00,
		0x00, 0x07, 0x00, 0x01, 0x00, 0x02, 0x04, 0x00, 0x80,
		0x00, 0x81, 0x00, 0x01, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Physical memory: 3 MiB up to ~33 MiB, mostly not a multiple of
		// the largest block, so coalescing also meets the end of memory.
		frames := uint64(768) + uint64(data[0]&0x3f)*120 + uint64(data[1])
		thp := data[0]&0x20 == 0
		b := NewBuddy(frames)
		ref := newRefBuddy(frames)
		as := NewAddressSpace(b, thp)
		rs := newRefSpace(ref, thp)
		data = data[2:]
		// checkLookup compares a non-faulting lookup of v.
		checkLookup := func(op int, v memaddr.VAddr) {
			pa, huge, ok := as.Lookup(v)
			m, rok := rs.pages[v.PageNum()]
			if ok != rok || ok && (pa != m.pfn.Addr(v.Offset()) || huge != m.huge) {
				t.Fatalf("op %d: Lookup(%#x) = (%#x, %v, %v), reference %+v", op, v, pa, huge, ok, m)
			}
		}

		// target picks a live VMA (by the reference's list).
		target := func(x byte) (vma, bool) {
			if len(rs.vmas) == 0 {
				return vma{}, false
			}
			return rs.vmas[int(x)%len(rs.vmas)], true
		}

		for op := 0; len(data) >= 3 && op < 128; op++ {
			code, x, y := data[0], data[1], data[2]
			data = data[3:]
			switch code % 6 {
			case 0: // Mmap: small (1-32 pages) or big (1-8 MiB, 2 MiB-aligned)
				size := uint64(1+x%32) * memaddr.PageBytes
				if x&0x80 != 0 {
					size = uint64(1+x%8)<<20 + uint64(y)*memaddr.PageBytes
				}
				if got, want := as.Mmap(size), rs.Mmap(size); got != want {
					t.Fatalf("op %d: Mmap(%d) = %#x, reference %#x", op, size, got, want)
				}
			case 1: // Touch a VMA, a prefix of it, or its tail from a page offset
				a, ok := target(x)
				if !ok {
					continue
				}
				start, size := a.base, a.size
				switch {
				case y&0x80 != 0:
					off := uint64(y&0x7f) << 14 % a.size
					start, size = a.base+memaddr.VAddr(off), a.size-off
				case y != 0:
					size = min(size, uint64(y)*memaddr.PageBytes)
				}
				err := as.Touch(start, size)
				var rerr error
				for off := uint64(0); off < size && rerr == nil; off += memaddr.PageBytes {
					_, _, rerr = rs.Translate(start + memaddr.VAddr(off))
				}
				if (err == nil) != (rerr == nil) {
					t.Fatalf("op %d: Touch(%#x, %d) err %v, reference %v", op, start, size, err, rerr)
				}
				for off := uint64(0); off < size; off += memaddr.PageBytes {
					checkLookup(op, start+memaddr.VAddr(off))
				}
			case 2, 4: // Translate (case 4: Lookup first) inside a VMA or stray
				var v memaddr.VAddr
				if a, ok := target(x); ok && y&0x80 == 0 {
					v = a.base + memaddr.VAddr((uint64(y)<<12|uint64(x)<<3)%a.size)
				} else {
					// Guard gaps, the next unmapped range, or below MmapBase.
					v = rs.next - memaddr.VAddr(memaddr.PageBytes) + memaddr.VAddr(uint64(y&0x7f)<<12|uint64(x))
					if x&1 != 0 {
						v = MmapBase - memaddr.VAddr(uint64(y)<<12+memaddr.PageBytes)
					}
				}
				if code%5 == 4 {
					checkLookup(op, v)
				}
				pa, huge, err := as.Translate(v)
				rpa, rhuge, rerr := rs.Translate(v)
				if pa != rpa || huge != rhuge || (err == nil) != (rerr == nil) {
					t.Fatalf("op %d: Translate(%#x) = (%#x, %v, %v), reference (%#x, %v, %v)",
						op, v, pa, huge, err, rpa, rhuge, rerr)
				}
			case 3: // Munmap a VMA, or a base/size that matches none
				a, ok := target(x)
				switch {
				case !ok || y&0x81 == 0x80: // nothing mapped there
					a = vma{base: rs.next + memaddr.VAddr(uint64(x)<<12), size: memaddr.PageBytes}
				case y&0x81 == 0x81: // right base, wrong size
					a.size += memaddr.PageBytes
				}
				err, rerr := as.Munmap(a.base, a.size), rs.Munmap(a.base, a.size)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("op %d: Munmap(%#x, %d) err %v, reference %v", op, a.base, a.size, err, rerr)
				}
			case 5: // unmap every VMA in Mmap order, then reuse the space
				for _, a := range append([]vma(nil), rs.vmas...) {
					if err, rerr := as.Munmap(a.base, a.size), rs.Munmap(a.base, a.size); err != nil || rerr != nil {
						t.Fatalf("op %d: Munmap(%#x, %d) err %v, reference %v", op, a.base, a.size, err, rerr)
					}
				}
				as.Reset()
				rs = newRefSpace(ref, thp)
			}

			if as.Stats() != rs.stats {
				t.Fatalf("op %d: stats %+v, reference %+v", op, as.Stats(), rs.stats)
			}
			want := make([]struct {
				Base memaddr.VAddr
				Size uint64
			}, len(rs.vmas))
			for i, a := range rs.vmas {
				want[i].Base, want[i].Size = a.base, a.size
			}
			if got := as.VMAs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: VMAs %v, reference %v", op, got, want)
			}
			if b.FreeBlockCounts() != ref.counts || b.FreeFrames() != ref.free {
				t.Fatalf("op %d: block counts %v (%d free), reference %v (%d free)",
					op, b.FreeBlockCounts(), b.FreeFrames(), ref.counts, ref.free)
			}
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
