// Package replay materialises workload traces once into packed,
// cache-friendly flat buffers and shares them through a byte-budgeted
// pool, so that sweep-shaped experiments — many cache geometries over
// the same application trace, the shape of Figs. 6-18 — pay trace
// generation once per (app, scenario, seed, length) instead of once per
// configuration. This is the single-pass multi-configuration replay
// trick of trace-driven simulators (zsim, gem5 et al.), applied to the
// synthetic generator in internal/workload.
//
// A Buffer packs each trace.Record into 16 bytes (two words): the virtual and
// physical page offsets are equal by construction, program counters of
// synthetic traces live in a small dense window above 0x400000, and
// gap/dependence/flag fields are narrow. Records that do not fit —
// replayed real traces with arbitrary PCs, or addresses beyond 48 bits
// — fail packing with ErrUnpackable, and callers fall back to live
// generation; nothing is silently truncated.
//
// Decoding is the per-record hot path of every replayed run: a Cursor
// is the buffer's trace.Reader, and its NextInto reads two words and
// reassembles the record with shifts and masks, allocation-free
// (enforced by the hotalloc analyzer through the //sipt:hotpath
// annotations below).
package replay

import (
	"errors"
	"fmt"
	"io"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
)

// ErrUnpackable marks a record that does not fit the packed 16-byte
// encoding. Callers treat it as "materialisation unavailable" and fall
// back to streaming from a live generator.
var ErrUnpackable = errors.New("replay: record does not fit the packed encoding")

// pcBase is the bottom of the synthetic code region
// (workload.Generator's basePC and cpu's chainBase); packed PCs are
// stored as 4-byte-instruction indices relative to it.
const pcBase = 0x400000

// Packing limits. Word layout (little bit-endian within each uint64):
//
//	word0: VPN[35:0] << 28 | pageOffset[11:0] << 16 | gap[15:0]
//	word1: PPN[35:0] << 28 | pcIdx[17:0] << 10 | depDist[7:0] << 2 | flags[1:0]
//
// The virtual and physical page offsets are identical (translation
// preserves the low 12 bits even on huge pages), so one offset field
// serves both addresses.
const (
	pageNumBits = 36 // VA/PA below 2^48
	pcIdxBits   = 18 // up to 256 Ki distinct memory-instruction PCs
	flagBits    = 2  // FlagStore | FlagHuge

	pageNumMax = 1 << pageNumBits
	pcIdxMax   = 1 << pcIdxBits
	flagsMax   = 1 << flagBits
)

// BytesPerRecord is the in-memory size of one packed record.
const BytesPerRecord = 16

// Buffer is an immutable-after-build materialised trace: a flat slice
// of packed records. Build one with FromReader (or Append), then read
// it concurrently through any number of independent Cursors.
type Buffer struct {
	words []uint64
}

// Len returns the number of records.
func (b *Buffer) Len() int { return len(b.words) / 2 }

// Bytes returns the buffer's payload size in bytes; the pool budgets
// against this.
func (b *Buffer) Bytes() int64 { return int64(len(b.words)) * 8 }

// PackRecord packs one record into the two-word encoding. It returns an
// error wrapping ErrUnpackable when the record exceeds the packed field
// widths. The encoding is the wire format of internal/tracefile as well
// as the in-memory Buffer layout, so a serialised trace replays through
// the identical decode path.
func PackRecord(rec *trace.Record) (w0, w1 uint64, err error) {
	vpn := uint64(rec.VA) >> memaddr.PageShift
	ppn := uint64(rec.PA) >> memaddr.PageShift
	if vpn >= pageNumMax || ppn >= pageNumMax {
		return 0, 0, fmt.Errorf("%w: address VA=%#x PA=%#x beyond %d-bit page numbers",
			ErrUnpackable, uint64(rec.VA), uint64(rec.PA), pageNumBits)
	}
	if rec.PC < pcBase || rec.PC&3 != 0 || (rec.PC-pcBase)>>2 >= pcIdxMax {
		return 0, 0, fmt.Errorf("%w: PC %#x outside the dense synthetic window", ErrUnpackable, rec.PC)
	}
	if rec.Flags >= flagsMax {
		return 0, 0, fmt.Errorf("%w: flags %#x beyond the defined bits", ErrUnpackable, rec.Flags)
	}
	off := uint64(rec.VA) & (memaddr.PageBytes - 1)
	w0 = vpn<<28 | off<<16 | uint64(rec.Gap)
	w1 = ppn<<28 | (rec.PC-pcBase)>>2<<10 | uint64(rec.DepDist)<<2 | uint64(rec.Flags)
	return w0, w1, nil
}

// UnpackRecord reverses PackRecord: two loads plus shift/mask
// reassembly, no allocation. Any word pair decodes (every bit pattern
// is a valid record), so corruption detection is the caller's job —
// tracefile guards the wire with per-chunk checksums.
//
//sipt:hotpath
func UnpackRecord(w0, w1 uint64, rec *trace.Record) {
	off := w0 >> 16 & (memaddr.PageBytes - 1)
	rec.VA = memaddr.VAddr(w0>>28<<memaddr.PageShift | off)
	rec.PA = memaddr.PAddr(w1>>28<<memaddr.PageShift | off)
	rec.PC = pcBase + (w1>>10&(pcIdxMax-1))<<2
	rec.Gap = uint16(w0)
	rec.DepDist = uint8(w1 >> 2)
	rec.Flags = uint8(w1 & (flagsMax - 1))
}

// Append packs one record onto the buffer. It returns an error wrapping
// ErrUnpackable when the record exceeds the packed field widths.
func (b *Buffer) Append(rec *trace.Record) error {
	w0, w1, err := PackRecord(rec)
	if err != nil {
		return err
	}
	b.words = append(b.words, w0, w1)
	return nil
}

// Words exposes the packed word stream (two words per record, record
// order). The slice aliases the buffer's backing store and must not be
// mutated; it exists so serialisers (internal/tracefile) can write the
// payload without a per-record repack.
func (b *Buffer) Words() []uint64 { return b.words }

// BufferFromWords adopts a packed word stream — e.g. one decoded from a
// trace file — as a Buffer without copying. The caller must not mutate
// words afterwards. The length must be even (two words per record).
func BufferFromWords(words []uint64) (*Buffer, error) {
	if len(words)%2 != 0 {
		return nil, fmt.Errorf("replay: odd word count %d (records are two words)", len(words))
	}
	return &Buffer{words: words}, nil
}

// FromReader drains r to EOF into a fresh Buffer. sizeHint, when
// positive, pre-sizes the buffer to avoid growth copies.
func FromReader(r trace.Reader, sizeHint int) (*Buffer, error) {
	b := &Buffer{}
	if sizeHint > 0 {
		b.words = make([]uint64, 0, 2*sizeHint)
	}
	var rec trace.Record
	for {
		if err := r.NextInto(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return b, nil
			}
			return nil, err
		}
		if err := b.Append(&rec); err != nil {
			return nil, err
		}
	}
}

// Cursor streams a Buffer's records from the beginning. It is a
// trace.Reader; independent cursors over one buffer are safe to use
// concurrently.
type Cursor struct {
	words []uint64
	pos   int
}

// Cursor returns a fresh cursor positioned at the first record.
func (b *Buffer) Cursor() *Cursor { return &Cursor{words: b.words} }

// NextInto implements trace.Reader: a replayed run's per-record
// decode. Two loads plus shift/mask reassembly, no allocation.
//
//sipt:hotpath
func (c *Cursor) NextInto(rec *trace.Record) error {
	if c.pos >= len(c.words) {
		return io.EOF
	}
	w0 := c.words[c.pos]
	w1 := c.words[c.pos+1]
	c.pos += 2
	UnpackRecord(w0, w1, rec)
	return nil
}

// Reset rewinds to the first record. Unlike
// workload.Generator.Reset (which rebuilds the address space against
// the allocator's current state), a cursor reset replays the identical
// records.
func (c *Cursor) Reset() { c.pos = 0 }
