package cache

import (
	"encoding/binary"
	"testing"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// refCache is a deliberately plain reference model of Cache: a slice
// of sets, a line struct per way with a 64-bit last-use counter, the
// victim the first empty way else the oldest, and no memo. Nothing in
// it can wrap, so FuzzCacheMatchesLRUReference checks the recency
// words, the one-word lines and the lastTag memo against it.
type refCache struct {
	sets     [][]refLine
	lineBits uint
	clock    uint64
	stats    Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	used         uint64 // clock value of the last access or fill
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{sets: make([][]refLine, cfg.Sets()), lineBits: memaddr.Log2(cfg.LineBytes)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) set(pa memaddr.PAddr) (set []refLine, tag uint64) {
	tag = uint64(pa) >> r.lineBits
	return r.sets[tag%uint64(len(r.sets))], tag
}

// mru returns the way of set used last, or -1 for an empty set.
func mru(set []refLine) int {
	way := -1
	for i, l := range set {
		if l.valid && (way < 0 || l.used > set[way].used) {
			way = i
		}
	}
	return way
}

func (r *refCache) access(pa memaddr.PAddr, write bool) AccessResult {
	r.stats.Accesses++
	r.clock++
	set, tag := r.set(pa)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			res := AccessResult{Hit: true, Way: i, MRUHit: mru(set) == i}
			set[i].used = r.clock
			set[i].dirty = set[i].dirty || write
			r.stats.Hits++
			return res
		}
	}
	r.stats.Misses++
	return AccessResult{}
}

func (r *refCache) fill(pa memaddr.PAddr, dirty bool) (Victim, bool) {
	r.stats.Fills++
	r.clock++
	set, tag := r.set(pa)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = r.clock
			set[i].dirty = set[i].dirty || dirty
			return Victim{}, false
		}
	}
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := range set {
			if set[i].used < set[vi].used {
				vi = i
			}
		}
	}
	old := set[vi]
	set[vi] = refLine{tag: tag, valid: true, dirty: dirty, used: r.clock}
	if !old.valid {
		return Victim{}, false
	}
	if old.dirty {
		r.stats.Writebacks++
	}
	return Victim{PA: memaddr.PAddr(old.tag << r.lineBits), Dirty: old.dirty}, true
}

// A fuzz input is a geometry header then a stream of ops.
//
//	byte 0: ways = 1<<(b%5) (1-16), sets = 1<<(b/5%4) (1-8)
//	byte 1: line = 1<<(2+b%5) bytes (4-64)
//	op:     bit 0 fill (else access), bit 1 store or dirty fill,
//	        bit 2 reuse: bits 3-7 pick one of the last 32 PAs given in
//	        full; else the op's PA follows as 8 little-endian bytes
const (
	opFill  = 1
	opDirty = 2
	opReuse = 4
)

// encodeHierarchyOps encodes how a hierarchy drives its L1 over pas: an
// access per address and, on a miss, a fill of the same line.
func encodeHierarchyOps(header [2]byte, pas []memaddr.PAddr, stores []bool) []byte {
	cfg := fuzzConfig(header)
	ref := newRefCache(cfg)
	out := header[:]
	var hist [32]memaddr.PAddr
	n := 0
	emit := func(op byte, pa memaddr.PAddr) {
		for i := range min(n, len(hist)) {
			if hist[i] == pa {
				out = append(out, op|opReuse|byte(i)<<3)
				return
			}
		}
		out = binary.LittleEndian.AppendUint64(append(out, op), uint64(pa))
		hist[n%len(hist)] = pa
		n++
	}
	for i, pa := range pas {
		var dirty byte
		if stores[i] {
			dirty = opDirty
		}
		emit(dirty, pa)
		if !ref.access(pa, stores[i]).Hit {
			ref.fill(pa, stores[i])
			emit(opFill|dirty, pa)
		}
	}
	return out
}

func fuzzConfig(header [2]byte) Config {
	ways := 1 << (header[0] % 5)
	sets := uint64(1) << (header[0] / 5 % 4)
	line := uint64(1) << (2 + header[1]%5)
	return Config{Name: "fuzz", SizeBytes: sets * uint64(ways) * line, Ways: ways, LineBytes: line}
}

// goldenPAs returns the PA and store flag of the first n records of
// app's trace under the golden tables' seed, on a physical memory sized
// like sim.NewSystem's.
func goldenPAs(t testing.TB, app string, n int) ([]memaddr.PAddr, []bool) {
	t.Helper()
	prof := workload.MustLookup(app)
	need := workload.FramesNeeded(prof)
	gen, err := workload.NewGenerator(prof, vm.NewSystem(vm.ScenarioNormal, need*2+16384, need+need/4, 1), 1, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	pas, stores := make([]memaddr.PAddr, 0, n), make([]bool, 0, n)
	for _, r := range recs {
		pas = append(pas, r.PA)
		stores = append(stores, r.IsStore())
	}
	return pas, stores
}

// FuzzCacheMatchesLRUReference drives arbitrary access and fill
// streams through Cache and refCache on 1-16 ways, 1-8 sets and 4-64
// byte lines, and requires identical outcomes after every op and
// identical Stats at the end.
//
//	go test -run='^$' -fuzz=FuzzCacheMatchesLRUReference ./internal/cache/
func FuzzCacheMatchesLRUReference(f *testing.F) {
	for _, app := range []string{"libquantum", "calculix", "h264ref", "ycsb"} {
		pas, stores := goldenPAs(f, app, 96)
		// 2 ways x 8 sets and 16 ways x 1 set of 64-byte lines, and 4
		// ways x 4 sets of 4-byte lines.
		for _, h := range [][2]byte{{1 + 5*3, 4}, {4, 4}, {2 + 5*2, 0}} {
			f.Add(encodeHierarchyOps(h, pas, stores))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzConfig([2]byte{data[0], data[1]})
		c, ref := New(cfg), newRefCache(cfg)
		var hist [32]memaddr.PAddr
		n := 0
		for i, step := 2, 0; i < len(data); step++ {
			op := data[i]
			i++
			var pa memaddr.PAddr
			if op&opReuse != 0 {
				pa = hist[op>>3]
			} else {
				if i+8 > len(data) {
					break
				}
				pa = memaddr.PAddr(binary.LittleEndian.Uint64(data[i:]))
				i += 8
				hist[n%len(hist)] = pa
				n++
			}
			dirty := op&opDirty != 0
			if op&opFill == 0 {
				got, want := c.Access(pa, dirty), ref.access(pa, dirty)
				if got != want {
					t.Fatalf("%+v step %d: Access(%#x, %v) = %+v, reference %+v", cfg, step, uint64(pa), dirty, got, want)
				}
				continue
			}
			gotV, gotE := c.Fill(pa, dirty)
			wantV, wantE := ref.fill(pa, dirty)
			if gotV != wantV || gotE != wantE {
				t.Fatalf("%+v step %d: Fill(%#x, %v) = %+v %v, reference %+v %v", cfg, step, uint64(pa), dirty, gotV, gotE, wantV, wantE)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%+v: Stats = %+v, reference %+v", cfg, c.Stats(), ref.stats)
		}
	})
}
