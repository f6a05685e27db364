package workload

import (
	"encoding/binary"
	"fmt"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// Program is the recorded virtual half of one generator pass: the
// setup chunk table, every churn remap with the record position it
// happens at, and each record's PC, VA, gap, load-use distance and
// store flag. All of it depends only on (profile, seed, limit) — VAs
// come from the address space's own deterministic Mmap bases — so a
// replay that applies the same address-space operations to an empty
// space at the same record positions, and translates every VA live,
// issues exactly the buddy operations the drawing generator would and
// yields the same frames. A Program is immutable once complete and may
// be replayed by any number of generators, on any system.
type Program struct {
	prof  Profile
	limit uint64
	// chunks is the chunk table right after setup, in allocation order.
	chunks []chunk
	// remaps are the churn events, in record order.
	remaps []remap
	recs   []packedRec
}

// remap is one churn event: before record at is emitted, chunk idx is
// unmapped and mapped afresh at base.
type remap struct {
	at   uint64
	idx  int
	base memaddr.VAddr
}

// packedRec is the virtual half of one record in 6 bytes, the
// little-endian low 48 bits of
//
//	bits  0-27  VA - vm.MmapBase (256 MiB of mmap space)
//	bits 28-32  PC slot, (PC - basePC) / 4 (32 streams)
//	bits 33-41  gap (< 512)
//	bits 42-46  DepDist
//	bit  47     store
//
// Every profile fits with room to spare (TestEveryProfileFitsPacking);
// a record that does not abandons the recording.
type packedRec [6]byte

const (
	packVABits   = 28
	packSlotBits = 5
	packGapShift = packVABits + packSlotBits
	packGapBits  = 9
	packDepShift = packGapShift + packGapBits
	packDepBits  = 5
	packStoreBit = packDepShift + packDepBits
	// maxPrealloc caps a recording's up-front capacity, so an effectively
	// unbounded limit grows on demand instead of reserving it all.
	maxPrealloc = 1 << 20
)

// complete reports whether the program holds a whole pass.
func (p *Program) complete() bool { return uint64(len(p.recs)) == p.limit }

// add packs rec's virtual half onto the recording. It reports false,
// leaving the program unchanged, when the record does not fit the
// packing, so the caller can abandon the recording.
func (p *Program) add(rec *trace.Record) bool {
	off := uint64(rec.VA - vm.MmapBase)
	slot := (rec.PC - basePC) / 4
	if off >= 1<<packVABits || slot >= 1<<packSlotBits || basePC+slot*4 != rec.PC ||
		rec.Gap >= 1<<packGapBits || rec.DepDist >= 1<<packDepBits {
		return false
	}
	r := off | slot<<packVABits | uint64(rec.Gap)<<packGapShift | uint64(rec.DepDist)<<packDepShift
	if rec.Flags&trace.FlagStore != 0 {
		r |= 1 << packStoreBit
	}
	var b packedRec
	binary.LittleEndian.PutUint32(b[:4], uint32(r))
	binary.LittleEndian.PutUint16(b[4:], uint16(r>>32))
	p.recs = append(p.recs, b)
	return true
}

// Record is NewGenerator that also records its first pass as a
// Program. Once that pass has run to its limit, Program returns it and
// every later Reset replays it instead of redrawing. limit must be
// nonzero: an unbounded pass never completes.
func Record(p Profile, sys *vm.System, seed int64, limit uint64) (*Generator, error) {
	if limit == 0 {
		return nil, fmt.Errorf("workload %s: Record needs a record limit", p.Name)
	}
	g, err := NewGenerator(p, sys, seed, limit)
	if err != nil {
		return nil, err
	}
	g.prog = &Program{
		prof:   g.prof,
		limit:  limit,
		chunks: append([]chunk(nil), g.chunks...),
		recs:   make([]packedRec, 0, min(limit, maxPrealloc)),
	}
	return g, nil
}

// Program returns the program the generator recorded or replays, or
// nil when it has none: a NewGenerator generator, or a Record one whose
// first pass has not reached its limit (or was cut short by Reset).
func (g *Generator) Program() *Program {
	if g.prog == nil || !g.prog.complete() {
		return nil
	}
	return g.prog
}

// Replay returns a generator that replays the program against sys: its
// setup and every Reset apply the recorded address-space operations to
// an empty space, and each record's VA is translated live.
func (p *Program) Replay(sys *vm.System) (*Generator, error) {
	g := &Generator{prof: p.prof, sys: sys, limit: p.limit, prog: p, replay: true}
	if err := g.replaySetup(); err != nil {
		return nil, err
	}
	return g, nil
}

// replaySetup rebuilds the recorded chunk table in an empty address
// space, checking that each Mmap lands on the recorded base.
func (g *Generator) replaySetup() error {
	g.emptySpace()
	if g.chunks == nil {
		g.chunks = make([]chunk, 0, len(g.prog.chunks))
	}
	g.chunks = g.chunks[:0]
	for _, c := range g.prog.chunks {
		base, err := g.mapChunk(c.size, c.big)
		if err != nil {
			return err
		}
		if base != c.base {
			return fmt.Errorf("workload %s: replayed Mmap at %#x, recorded %#x", g.prof.Name, uint64(base), uint64(c.base))
		}
	}
	g.emitted = 0
	g.nextRemap = 0
	return nil
}

// replayInto decodes the next record's virtual half, first applying
// any churn remaps recorded at this position.
//
//sipt:hotpath
func (g *Generator) replayInto(rec *trace.Record) error {
	p := g.prog
	for g.nextRemap < len(p.remaps) && p.remaps[g.nextRemap].at == g.emitted {
		if err := g.replayRemap(p.remaps[g.nextRemap]); err != nil {
			return err
		}
		g.nextRemap++
	}
	b := &p.recs[g.emitted]
	r := uint64(binary.LittleEndian.Uint32(b[:4])) | uint64(binary.LittleEndian.Uint16(b[4:]))<<32
	rec.PC = basePC + (r>>packVABits&(1<<packSlotBits-1))*4
	rec.VA = vm.MmapBase + memaddr.VAddr(r&(1<<packVABits-1))
	rec.Gap = uint16(r >> packGapShift & (1<<packGapBits - 1))
	rec.DepDist = uint8(r >> packDepShift & (1<<packDepBits - 1))
	rec.Flags = uint8(r>>packStoreBit) * trace.FlagStore
	return nil
}

// replayRemap applies one recorded churn event.
func (g *Generator) replayRemap(r remap) error {
	base, err := g.remapChunk(r.idx)
	if err != nil {
		return fmt.Errorf("workload %s: replayed remap: %w", g.prof.Name, err)
	}
	if base != r.base {
		return fmt.Errorf("workload %s: replayed remap Mmap at %#x, recorded %#x", g.prof.Name, uint64(base), uint64(r.base))
	}
	return nil
}
