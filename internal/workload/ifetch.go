package workload

import (
	"io"
	"math/rand"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// IFetchGenerator produces an instruction-fetch address stream for a
// profile's code footprint: a text segment of functions, fetched
// line-by-line with loops (backward jumps within a function) and calls
// (jumps between functions, biased toward a hot set). It backs the
// instruction-cache extension experiment — the paper leaves L1I for
// future work but argues instruction working sets are small and
// I-TLB hit rates high, which is exactly what this stream exhibits.
//
// It implements trace.Reader; records carry one fetch per cache line
// with PC == VA and load semantics.
type IFetchGenerator struct {
	rng     *rand.Rand
	as      *vm.AddressSpace
	funcs   []textFunc
	hot     int // functions 0..hot-1 take most calls
	cur     int
	cursor  uint64 // byte offset within the current function
	loops   int    // remaining loop iterations in the current function
	limit   uint64
	emitted uint64
}

type textFunc struct {
	base memaddr.VAddr
	size uint64
}

// NewIFetchGenerator builds the text segment for the profile on the
// given system and returns the fetch stream. Text size scales with the
// data footprint but stays small (instruction working sets are), and is
// mapped as ordinary 4 KiB pages: Linux does not transparently
// huge-page file-backed text.
func NewIFetchGenerator(p Profile, sys *vm.System, seed int64, limit uint64) (*IFetchGenerator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &IFetchGenerator{
		rng:   rand.New(rand.NewSource(seed ^ int64(hashName(p.Name+"/text")))),
		as:    sys.NewSpace(),
		limit: limit,
	}
	// Text: 64 KiB - 1 MiB depending on footprint; 16-128 functions.
	textBytes := uint64(64 << 10)
	for textBytes < uint64(p.FootprintMiB*1024)<<6 && textBytes < 1<<20 {
		textBytes *= 2
	}
	nFuncs := int(textBytes / (8 << 10))
	if nFuncs < 16 {
		nFuncs = 16
	}
	// One contiguous text mapping, faulted in link order (an exec/mmap
	// of the binary), sliced into functions of varying size.
	base := g.as.Mmap(textBytes)
	if err := g.as.Touch(base, textBytes); err != nil {
		return nil, err
	}
	per := textBytes / uint64(nFuncs)
	for i := 0; i < nFuncs; i++ {
		size := per/2 + uint64(g.rng.Int63n(int64(per)))
		if uint64(i)*per+size > textBytes {
			size = textBytes - uint64(i)*per
		}
		g.funcs = append(g.funcs, textFunc{
			base: base + memaddr.VAddr(uint64(i)*per),
			size: memaddr.AlignDown(size, memaddr.LineBytes) + memaddr.LineBytes,
		})
	}
	g.hot = 1 + nFuncs/8
	g.cur = 0
	g.loops = 1 + g.rng.Intn(8)
	return g, nil
}

// NextInto implements trace.Reader: one record per fetched cache line.
func (g *IFetchGenerator) NextInto(rec *trace.Record) error {
	if g.limit != 0 && g.emitted >= g.limit {
		return io.EOF
	}
	f := g.funcs[g.cur]
	va := f.base + memaddr.VAddr(g.cursor%f.size)
	pa, huge, err := g.as.Translate(va)
	if err != nil {
		return err
	}
	g.cursor += memaddr.LineBytes

	// Control flow: at the end of the function body, either loop back
	// or transfer to another function (call/return).
	if g.cursor >= f.size {
		g.cursor = 0
		g.loops--
		if g.loops <= 0 {
			// 80% of transfers target the hot functions.
			if g.rng.Float64() < 0.8 {
				g.cur = g.rng.Intn(g.hot)
			} else {
				g.cur = g.rng.Intn(len(g.funcs))
			}
			g.loops = 1 + g.rng.Intn(8)
		}
	}

	// The prediction index is the function entry, as a fetch engine
	// indexed by branch/jump target would see it — fetch blocks within a
	// function share the predictor entry, like iterations of a loop
	// share a load PC on the data side.
	*rec = trace.Record{PC: uint64(f.base), VA: va, PA: pa, DepDist: 1}
	if huge {
		rec.Flags |= trace.FlagHuge
	}
	g.emitted++
	return nil
}
