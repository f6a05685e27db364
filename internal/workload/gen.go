package workload

import (
	"fmt"
	"io"
	"math/rand"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// chunk is one allocated virtual region.
type chunk struct {
	base memaddr.VAddr
	size uint64
	big  bool
}

// stream is one access stream with its own PC. Sequential streams walk
// a region cache-line by cache-line; random streams sample it uniformly.
type stream struct {
	pc     uint64
	seq    bool
	hot    bool
	chase  bool   // loads carry short use distances (pointer chasing)
	cursor uint64 // byte offset within the current target (sequential)
	// cur is the random-stream walk position, re-drawn per streak.
	cur memaddr.VAddr
	// tbase/tsize cache the stream's target region for the current
	// streak, so a streak walks one coherent region.
	tbase memaddr.VAddr
	tsize uint64
	// chunkIdx is the sticky small-chunk a cold stream currently works
	// in (index into smallIdx); it switches rarely, giving pages their
	// temporal locality.
	chunkIdx int
}

// Generator produces the access trace for one profile, streamingly.
// It implements trace.Reader. Each record has a virtual half (PC, VA,
// gap, load-use distance, store flag), which depends only on (profile,
// seed, limit), and a physical half (PA and the huge flag), which
// NextInto maps live by translating the VA against the system's shared
// buddy allocator. The virtual half comes
// either from the seeded RNG drawer or from a recorded Program (see
// Record and Program.Replay); both go through the same mapping code.
// Reset restarts the pass: the virtual half is replayed identically —
// redrawn from the same seed, or decoded from the program — and
// re-mapped, because the address space is rebuilt and frames (hence
// PAs) come from the allocator's current state.
type Generator struct {
	prof  Profile
	sys   *vm.System
	seed  int64
	limit uint64 // records per pass; 0 = unbounded

	as       *vm.AddressSpace
	rng      *rand.Rand
	chunks   []chunk
	smallIdx []int // indices of small chunks, for churn and cold targets
	bigIdx   []int
	hotBase  memaddr.VAddr
	hotSize  uint64
	streams  []stream
	emitted  uint64
	// churnLeft counts records until the next churn event; it mirrors
	// emitted%ChurnEvery without a per-record integer division.
	churnLeft int
	// meanGap caches 1/MemRatio - 1 (a float divide per record otherwise).
	meanGap float64
	pcSeq   uint64 // PC allocator for streams created after churn
	// cur/streakLeft implement access streaks: one stream issues several
	// consecutive accesses before control moves to another stream, as a
	// loop iteration would. Streaks give pointer chases their chains,
	// and give lines and pages their temporal locality.
	cur        *stream
	streakLeft int

	// prog is the program this generator records (replay false) or
	// replays (replay true); nil for a plain drawing generator.
	prog   *Program
	replay bool
	// nextRemap indexes the next churn remap a replay applies.
	nextRemap int
}

// basePC is the synthetic code region; each stream's memory instruction
// gets a distinct PC so PC-indexed predictors behave as they would on
// real loops.
const basePC = 0x400000

// NewGenerator builds the address space (performing the workload's
// allocation phase against the system's buddy allocator) and returns a
// ready trace source. limit bounds the records produced per pass.
func NewGenerator(p Profile, sys *vm.System, seed int64, limit uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{prof: p, sys: sys, seed: seed, limit: limit}
	if err := g.setup(); err != nil {
		return nil, err
	}
	return g, nil
}

// setup performs the allocation phase: big regions first (as an
// initialisation burst would), then small chunks interleaved.
func (g *Generator) setup() error {
	p := g.prof
	g.rng = rand.New(rand.NewSource(g.seed ^ int64(hashName(p.Name))))
	g.emptySpace()
	g.chunks = g.chunks[:0]
	g.smallIdx = g.smallIdx[:0]
	g.bigIdx = g.bigIdx[:0]
	g.emitted = 0

	totalBytes := uint64(p.FootprintMiB * (1 << 20))
	bigBytes := memaddr.AlignUp(uint64(float64(totalBytes)*p.BigRegionFrac), memaddr.PageBytes)
	smallBytes := totalBytes - bigBytes

	if bigBytes > 0 {
		// Up to four big regions, as a few large arrays would be.
		n := 1 + int(bigBytes/(16<<20))
		if n > 4 {
			n = 4
		}
		per := memaddr.AlignUp(bigBytes/uint64(n), memaddr.PageBytes)
		for i := 0; i < n; i++ {
			g.bigIdx = append(g.bigIdx, len(g.chunks))
			if _, err := g.mapChunk(per, true); err != nil {
				return err
			}
		}
	}
	for smallBytes > 0 {
		pages := p.SmallChunkPages[0]
		if p.SmallChunkPages[1] > p.SmallChunkPages[0] {
			pages += g.rng.Intn(p.SmallChunkPages[1] - p.SmallChunkPages[0] + 1)
		}
		size := uint64(pages) * memaddr.PageBytes
		if size > smallBytes {
			size = memaddr.AlignUp(smallBytes, memaddr.PageBytes)
		}
		g.smallIdx = append(g.smallIdx, len(g.chunks))
		if _, err := g.mapChunk(size, false); err != nil {
			return err
		}
		if size >= smallBytes {
			break
		}
		smallBytes -= size
	}

	// Hot window: inside the first big region when one exists, else
	// spanning the first small chunks.
	g.hotSize = uint64(p.HotKiB) << 10
	if len(g.bigIdx) > 0 {
		c := g.chunks[g.bigIdx[0]]
		if g.hotSize > c.size {
			g.hotSize = c.size
		}
		g.hotBase = c.base
	} else {
		c := g.chunks[g.smallIdx[0]]
		g.hotBase = c.base
		// The hot set spans multiple small chunks; accesses are routed
		// per-chunk in hotTarget, so only the base matters here.
	}

	// Streams: half hot, half cold; within each, SeqFrac sequential and
	// ChaseFrac pointer-chasing.
	g.streams = g.streams[:0]
	g.pcSeq = 0
	for i := 0; i < p.Streams; i++ {
		s := stream{
			pc:  g.nextPC(),
			hot: i%2 == 0,
			seq: g.rng.Float64() < p.SeqFrac,
		}
		// Pointer chases run over cache-resident structures (hash
		// buckets, tree nodes): hot streams chase readily, cold streams
		// rarely — a cold chase would serialise misses, which real
		// out-of-order windows overlap instead.
		if s.hot {
			s.chase = g.rng.Float64() < minF(1, p.ChaseFrac*1.6)
		} else {
			s.chase = g.rng.Float64() < p.ChaseFrac*0.15
		}
		s.cursor = uint64(g.rng.Intn(1 << 20))
		g.streams = append(g.streams, s)
	}
	g.cur = nil
	g.streakLeft = 0
	g.churnLeft = p.ChurnEvery
	g.meanGap = 1/p.MemRatio - 1
	return nil
}

// emptySpace gives the pass an empty address space: a new one from the
// system on the first pass, and on later passes the one teardown
// emptied, Reset so its page-table leaves are reused rather than
// reallocated.
func (g *Generator) emptySpace() {
	if g.as == nil {
		g.as = g.sys.NewSpace()
		return
	}
	g.as.Reset()
}

// mapChunk maps one setup chunk — Mmap, then Touch for big regions and,
// when the profile pre-touches, small chunks — and appends it to the
// chunk table. It returns the chunk's base.
func (g *Generator) mapChunk(size uint64, big bool) (memaddr.VAddr, error) {
	base := g.as.Mmap(size)
	if big || g.prof.PreTouch {
		if err := g.as.Touch(base, size); err != nil {
			what := "small chunk"
			if big {
				what = "big region"
			}
			return 0, fmt.Errorf("workload %s: %s: %w", g.prof.Name, what, err)
		}
	}
	g.chunks = append(g.chunks, chunk{base: base, size: size, big: big})
	return base, nil
}

//sipt:hotpath
func (g *Generator) nextPC() uint64 {
	pc := basePC + g.pcSeq*4
	g.pcSeq++
	return pc
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Reset restarts the pass from the beginning, so PCs, VAs and gaps
// repeat: a Record generator whose first pass completed (and a Replay
// one) replays its program, any other generator redraws from its seed.
// The address space is torn down and faulted in again, so physical
// frames are re-mapped from the allocator's *current* state; for
// deterministic PAs across resets the caller should materialise the
// trace (trace.Collect) instead. The space object itself, and its
// page-table leaves, are reused, so the rebuild costs the buddy calls
// and one page-table write per mapping, not a new page table. Reset
// exists for the multicore recycle loop, where "same program, later
// mapping" is exactly what rerunning a real binary would do.
func (g *Generator) Reset() {
	g.teardown()
	if g.prog != nil && !g.prog.complete() {
		// A recording cut short holds no whole pass to replay.
		g.prog = nil
	}
	g.replay = g.prog != nil
	var err error
	if g.replay {
		err = g.replaySetup()
	} else {
		err = g.setup()
	}
	if err != nil {
		// Setup failed on a system that previously accommodated the
		// workload: only possible if someone else drained physical
		// memory between passes. Treat as a programming error.
		panic(fmt.Sprintf("workload %s: Reset: %v", g.prof.Name, err))
	}
}

// teardown releases the generator's frames back to the system by
// unmapping every chunk, leaving the address space empty for the next
// pass to Reset and reuse. Chunks unmap in allocation order, which
// fixes the order frames return to the buddy and so the frames every
// later fault draws. The chunk slice keeps its capacity for the next
// setup.
func (g *Generator) teardown() {
	for _, c := range g.chunks {
		// Munmap only fails for unknown regions; ours are tracked.
		if err := g.as.Munmap(c.base, c.size); err != nil {
			panic(fmt.Sprintf("workload %s: teardown: %v", g.prof.Name, err))
		}
	}
	g.chunks = g.chunks[:0]
}

// Space exposes the backing address space (tools and tests inspect it).
// The same space serves every pass: Reset empties and refills it.
func (g *Generator) Space() *vm.AddressSpace { return g.as }

// NextInto implements trace.Reader (the simulator's per-record hot
// path). The record's virtual half is replayed from the program or drawn; either
// way it is then mapped here, by translating its VA live, and a
// recording generator packs it onto its program.
//
//sipt:hotpath
func (g *Generator) NextInto(rec *trace.Record) error {
	if g.limit != 0 && g.emitted >= g.limit {
		return io.EOF
	}
	if g.replay {
		if err := g.replayInto(rec); err != nil {
			return err
		}
	} else {
		g.drawInto(rec)
	}
	pa, huge, err := g.as.Translate(rec.VA)
	if err != nil {
		//siptlint:allow hotalloc: error path, never taken in a healthy run
		return fmt.Errorf("workload %s: %w", g.prof.Name, err)
	}
	rec.PA = pa
	if huge {
		rec.Flags |= trace.FlagHuge
	}
	if g.prog != nil && !g.replay {
		g.recordOne(rec)
	}
	g.emitted++
	return nil
}

// recordOne packs a drawn record onto the recording, abandoning the
// recording if the record does not fit the packing.
func (g *Generator) recordOne(rec *trace.Record) {
	if !g.prog.add(rec) {
		g.prog = nil
	}
}

// drawInto draws the next record's virtual half from the RNG, first
// applying any churn due at this position. PA is left for NextInto.
//
//sipt:hotpath
func (g *Generator) drawInto(rec *trace.Record) {
	p := &g.prof

	if p.ChurnEvery > 0 {
		if g.churnLeft == 0 {
			g.churn()
			g.churnLeft = p.ChurnEvery
		}
		g.churnLeft--
	}

	// Streak scheduling: pick a stream matching a hot/cold draw (so
	// HotFrac is respected regardless of stream population), then stay
	// with it for several accesses.
	if g.cur == nil || g.streakLeft <= 0 {
		hot := g.rng.Float64() < p.HotFrac
		g.cur = g.pickStream(hot)
		g.streakLeft = 4 + g.rng.Intn(8)
		g.retarget(g.cur)
		if !g.cur.seq {
			g.jumpRandom(g.cur)
		}
	}
	s := g.cur
	g.streakLeft--

	rec.PC = s.pc
	rec.VA = g.genAddr(s)
	rec.DepDist = 0
	rec.Flags = 0
	if g.rng.Float64() < p.StoreRatio {
		rec.Flags = trace.FlagStore
	} else {
		if s.chase {
			rec.DepDist = uint8(1 + g.rng.Intn(2))
		} else {
			rec.DepDist = uint8(5 + g.rng.Intn(12))
		}
	}
	gap := int(g.rng.ExpFloat64() * g.meanGap)
	if gap > 1<<16-1 {
		gap = 1<<16 - 1
	}
	rec.Gap = uint16(gap)
}

// pickStream selects a stream with the requested hotness, scanning from
// a random start so selection is uniform among matching streams.
//
//sipt:hotpath
func (g *Generator) pickStream(hot bool) *stream {
	n := len(g.streams)
	start := g.rng.Intn(n)
	idx := start
	for i := 0; i < n; i++ {
		s := &g.streams[idx]
		if s.hot == hot {
			return s
		}
		idx++
		if idx == n {
			idx = 0
		}
	}
	return &g.streams[start]
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// retarget resolves and caches the region a stream walks for the next
// streak, so the streak is spatially coherent.
func (g *Generator) retarget(s *stream) {
	base, size := g.target(s)
	if size < memaddr.LineBytes {
		size = memaddr.LineBytes
	}
	s.tbase, s.tsize = base, size
}

// jumpRandom repositions a random stream at streak start. Most jumps
// are local (within a 64 KiB neighbourhood of the previous position),
// mirroring the page-level temporal locality real pointer structures
// exhibit; occasional jumps are global.
func (g *Generator) jumpRandom(s *stream) {
	base, size := s.tbase, s.tsize
	inRegion := s.cur >= base && uint64(s.cur) < uint64(base)+size
	if inRegion && g.rng.Float64() < 0.65 {
		// Local jump: +-32 KiB, line-aligned, clamped to the region.
		off := int64(uint64(s.cur) - uint64(base))
		off += int64(g.rng.Intn(64<<10)) - 32<<10
		if off < 0 {
			off = 0
		}
		if uint64(off) >= size {
			off = int64(size - memaddr.LineBytes)
		}
		s.cur = base + memaddr.VAddr(uint64(off)&^uint64(memaddr.LineBytes-1))
		return
	}
	line := uint64(g.rng.Int63n(int64(size / memaddr.LineBytes)))
	s.cur = base + memaddr.VAddr(line*memaddr.LineBytes)
}

// genAddr produces the next virtual address for a stream within its
// streak target.
//
//sipt:hotpath
func (g *Generator) genAddr(s *stream) memaddr.VAddr {
	base, size := s.tbase, s.tsize
	if size == 0 {
		g.retarget(s)
		base, size = s.tbase, s.tsize
	}
	if s.seq {
		// Word-by-word walk: several consecutive accesses share a line,
		// as array scans do (this is also what gives MRU way prediction
		// its high accuracy on real code).
		s.cursor += 8
		return base + memaddr.VAddr(s.cursor%size)
	}
	// Random streams mix word-sequential touches with line-granular
	// jumps inside a +-4 KiB neighbourhood of the walk position: field
	// accesses within an object, then a hop to a sibling object. The
	// line jumps are what make these streams capacity-sensitive.
	if s.cur < base || uint64(s.cur) >= uint64(base)+size {
		line := uint64(g.rng.Int63n(int64(size / memaddr.LineBytes)))
		s.cur = base + memaddr.VAddr(line*memaddr.LineBytes)
	}
	// Hot structures are pointer-dense (high line-jump rate, so their
	// working-set size is felt by the cache); cold scans are mostly
	// word-sequential.
	jump := 0.10
	if s.hot {
		jump = 0.65
	}
	if g.rng.Float64() < jump {
		off := int64(uint64(s.cur) - uint64(base))
		off += int64(g.rng.Intn(8<<10)) - 4<<10
		if off < 0 {
			off = 0
		}
		if uint64(off) >= size {
			off = int64(size - memaddr.LineBytes)
		}
		s.cur = base + memaddr.VAddr(uint64(off)&^uint64(memaddr.LineBytes-1))
	}
	va := s.cur
	s.cur += 8
	return va
}

// target resolves the region a stream currently walks.
//
//sipt:hotpath
func (g *Generator) target(s *stream) (memaddr.VAddr, uint64) {
	p := &g.prof
	if s.hot {
		if len(g.bigIdx) > 0 {
			return g.hotBase, g.hotSize
		}
		// Hot set spread over the leading small chunks covering HotKiB.
		return g.hotSmallTarget(s)
	}
	// Cold access: big region with probability BigColdFrac.
	if len(g.bigIdx) > 0 && g.rng.Float64() < p.BigColdFrac {
		c := g.chunks[g.bigIdx[g.rng.Intn(len(g.bigIdx))]]
		return c.base, c.size
	}
	if len(g.smallIdx) == 0 {
		c := g.chunks[g.bigIdx[0]]
		return c.base, c.size
	}
	// Sequential cold streams drift from chunk to chunk (cursor rolls
	// over into the next chunk); random ones stick to a chunk and
	// switch rarely.
	if s.seq {
		idx := g.smallIdx[(s.cursor/(4*memaddr.PageBytes))%uint64(len(g.smallIdx))]
		c := g.chunks[idx]
		return c.base, c.size
	}
	if s.chunkIdx <= 0 || s.chunkIdx >= len(g.smallIdx) || g.rng.Float64() < 0.15 {
		s.chunkIdx = g.rng.Intn(len(g.smallIdx))
	}
	c := g.chunks[g.smallIdx[s.chunkIdx]]
	return c.base, c.size
}

// hotSmallTarget returns the portion of the small-chunk list that forms
// the hot set when no big region exists.
//
//sipt:hotpath
func (g *Generator) hotSmallTarget(s *stream) (memaddr.VAddr, uint64) {
	var acc uint64
	for _, idx := range g.smallIdx {
		c := g.chunks[idx]
		acc += c.size
		if s.seq {
			// Sequential hot streams cycle through the hot chunks.
			if acc > s.cursor%g.hotSize {
				return c.base, c.size
			}
		} else if g.rng.Int63n(int64(g.hotSize)) < int64(acc) {
			return c.base, c.size
		}
		if acc >= g.hotSize {
			return c.base, c.size
		}
	}
	c := g.chunks[g.smallIdx[len(g.smallIdx)-1]]
	return c.base, c.size
}

// churn remaps one random small cold chunk, modelling allocator
// turnover: the chunk's pages return to the buddy allocator and fresh
// frames (with a fresh delta) replace them.
func (g *Generator) churn() {
	if len(g.smallIdx) == 0 {
		return
	}
	idx := g.smallIdx[g.rng.Intn(len(g.smallIdx))]
	base, err := g.remapChunk(idx)
	if err != nil {
		return
	}
	if g.prog != nil {
		g.prog.remaps = append(g.prog.remaps, remap{at: g.emitted, idx: idx, base: base})
	}
}

// remapChunk unmaps chunk idx and maps it afresh (pre-touched when the
// profile pre-touches), returning its new base.
func (g *Generator) remapChunk(idx int) (memaddr.VAddr, error) {
	c := &g.chunks[idx]
	if err := g.as.Munmap(c.base, c.size); err != nil {
		return 0, err
	}
	c.base = g.as.Mmap(c.size)
	if g.prof.PreTouch {
		// Ignore exhaustion here: demand faulting will surface it.
		_ = g.as.Touch(c.base, c.size)
	}
	return c.base, nil
}

// FramesNeeded estimates the physical frames a profile requires,
// including page-table slack, for sizing vm.NewSystem reserves.
func FramesNeeded(p Profile) uint64 {
	frames := uint64(p.FootprintMiB*(1<<20)) / memaddr.PageBytes
	return frames + frames/8 + 512
}
