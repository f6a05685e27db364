package tlb

import (
	"testing"

	"sipt/internal/memaddr"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// refArray is a deliberately plain translation array: one linear list
// of entries per set, a 64-bit last-use counter per entry, and the
// victim the first empty entry else the oldest.
type refArray struct {
	sets  [][]refEntry
	clock uint64
}

type refEntry struct {
	key   uint64
	valid bool
	used  uint64
}

func newRefArray(entries, ways int) *refArray {
	a := &refArray{sets: make([][]refEntry, entries/ways)}
	for i := range a.sets {
		a.sets[i] = make([]refEntry, ways)
	}
	return a
}

func (a *refArray) set(key uint64) []refEntry { return a.sets[key%uint64(len(a.sets))] }

func (a *refArray) lookup(key uint64) bool {
	a.clock++
	set := a.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].used = a.clock
			return true
		}
	}
	return false
}

func (a *refArray) insert(key uint64) {
	a.clock++
	set := a.set(key)
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
	set[vi] = refEntry{key: key, valid: true, used: a.clock}
}

// refTLB is the two-level TLB written out plainly over refArrays.
type refTLB struct {
	cfg                 Config
	l1Small, l1Huge, l2 *refArray
	stats               Stats
}

func newRefTLB(cfg Config) *refTLB {
	return &refTLB{
		cfg:     cfg,
		l1Small: newRefArray(cfg.L1SmallEntries, cfg.L1Ways),
		l1Huge:  newRefArray(cfg.L1HugeEntries, cfg.L1Ways),
		l2:      newRefArray(cfg.L2Entries, cfg.L2Ways),
	}
}

func (t *refTLB) translate(va memaddr.VAddr, huge bool) Result {
	t.stats.Lookups++
	l1, key := t.l1Small, uint64(va.PageNum())
	if huge {
		l1, key = t.l1Huge, va.HugePageNum()
	}
	if l1.lookup(key) {
		t.stats.L1Hits++
		if huge {
			t.stats.HugeHits++
		}
		return Result{L1Hit: true}
	}
	if t.l2.lookup(key) {
		t.stats.L2Hits++
		l1.insert(key)
		return Result{Penalty: t.cfg.L2Latency}
	}
	t.stats.Walks++
	t.l2.insert(key)
	l1.insert(key)
	return Result{Penalty: t.cfg.L2Latency + t.cfg.WalkLatency}
}

// A fuzz input is a stream of 3-byte ops: byte 0 bit 0 selects a huge
// page, bits 1-7 a byte offset; bytes 1-2 are a little-endian page
// number. 65536 pages overflow the 1024-entry L2, while page-local
// runs exercise the arrays' last-hit memo.
func decodeOp(op []byte) (memaddr.VAddr, bool) {
	page := uint64(op[1]) | uint64(op[2])<<8
	if op[0]&1 != 0 {
		return memaddr.VAddr(page<<memaddr.HugePageShift | uint64(op[0]>>1)), true
	}
	return memaddr.VAddr(page<<memaddr.PageShift | uint64(op[0]>>1)), false
}

// encodeOps keeps each VA's page flag, low 16 page-number bits and low
// offset bits.
func encodeOps(recs []trace.Record) []byte {
	out := make([]byte, 0, 3*len(recs))
	for _, r := range recs {
		page, flag := uint64(r.VA.PageNum()), byte(0)
		if r.Huge() {
			page, flag = r.VA.HugePageNum(), 1
		}
		out = append(out, byte(r.VA)<<1|flag, byte(page), byte(page>>8))
	}
	return out
}

// FuzzTLBMatchesReference drives Translate with arbitrary VAs and page
// flags through the Tab. II TLB and refTLB and requires the same
// Penalty and L1Hit on every lookup and the same final Stats.
//
//	go test -run='^$' -fuzz=FuzzTLBMatchesReference ./internal/tlb/
func FuzzTLBMatchesReference(f *testing.F) {
	for _, app := range []string{"libquantum", "calculix", "h264ref", "ycsb"} {
		prof := workload.MustLookup(app)
		need := workload.FramesNeeded(prof)
		gen, err := workload.NewGenerator(prof, vm.NewSystem(vm.ScenarioNormal, need*2+16384, need+need/4, 1), 1, 128)
		if err != nil {
			f.Fatal(err)
		}
		recs, err := trace.Collect(gen, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeOps(recs))
	}
	// Two sweeps over ten pages that share an L1 set and an L2 set: one
	// more than the L2's eight ways, so each lookup walks.
	var sweep []byte
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 10*128; p += 128 {
			sweep = append(sweep, 0, byte(p), byte(p>>8))
		}
	}
	f.Add(sweep)
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, ref := New(Default()), newRefTLB(Default())
		for i := 0; i+3 <= len(data); i += 3 {
			va, huge := decodeOp(data[i : i+3])
			got, want := tl.Translate(va, huge), ref.translate(va, huge)
			if got != want {
				t.Fatalf("op %d: Translate(%#x, %v) = %+v, reference %+v", i/3, uint64(va), huge, got, want)
			}
		}
		if tl.Stats() != ref.stats {
			t.Fatalf("Stats = %+v, reference %+v", tl.Stats(), ref.stats)
		}
	})
}
