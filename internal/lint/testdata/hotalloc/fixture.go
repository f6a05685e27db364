// Package fixturehot seeds hotalloc violations inside //sipt:hotpath
// functions and shows that unannotated code is untouched.
package fixturehot

import "fmt"

type point struct{ x int }

//sipt:hotpath
func hotBad(m map[uint64]int, xs []int, k uint64) int {
	buf := make([]int, 8) // want "make"
	xs = append(xs, 1)    // want "append"
	v := m[k]             // want "map access"
	m[k] = v + 1          // want "map access"
	delete(m, k)          // want "delete"
	for range m {         // want "range over map"
	}
	f := func() int { return 1 } // want "function literal"
	p := &point{x: 1}            // want "composite literal"
	s := []int{1, 2}             // want "slice literal"
	b := any(v)                  // want "interface"
	bi, _ := b.(int)
	return buf[0] + xs[0] + f() + p.x + s[0] + bi
}

//sipt:hotpath
func hotFmt(x int) string {
	return fmt.Sprintf("%d", x) // want "fmt"
}

//sipt:hotpath
func hotGood(xs []int, i int) int {
	var p point
	p.x = xs[i]
	q := point{x: p.x + 1} // struct value literal stays on the stack
	return q.x
}

// record mirrors the shape of a packed trace record as the replay
// decode loop (internal/replay Cursor.NextInto) reassembles it.
type record struct {
	va, pa uint64
	flags  uint8
}

// hotDecode is the clean decode-loop shape: two word loads plus
// shift/mask reassembly into a caller-owned record. Nothing here may
// allocate.
//
//sipt:hotpath
func hotDecode(words []uint64, pos int, rec *record) int {
	w0 := words[pos]
	w1 := words[pos+1]
	rec.va = w0>>28<<12 | w0>>16&0xfff
	rec.pa = w1 >> 28 << 12
	rec.flags = uint8(w1 & 3)
	return pos + 2
}

// hotDecodeBad materialises while decoding — the classic way a decode
// loop regains its per-record allocation.
//
//sipt:hotpath
func hotDecodeBad(words []uint64, out []record) []record {
	for pos := 0; pos+1 < len(words); pos += 2 {
		out = append(out, record{ // want "append"
			va: words[pos] >> 28 << 12,
			pa: words[pos+1] >> 28 << 12,
		})
	}
	return out
}

// laneState mirrors one lane of a multi-config sweep kernel: a dense chain
// slab indexed by a precomputed slot, plus the sparse-PC fallback map.
type laneState struct {
	chain    []uint32
	chainMap map[uint64]uint32
	acc      uint64
}

// hotLaneSweepBad reconstructs the allocation-in-lane-loop bug caught
// while writing that kernel: the sparse-chain fallback map was
// built and consulted inside the per-record lane loop, so every record
// of every lane paid a map probe and the first paid the make.
//
//sipt:hotpath
func hotLaneSweepBad(lanes []laneState, pcs []uint64) {
	for li := range lanes {
		l := &lanes[li]
		for _, pc := range pcs {
			if l.chainMap == nil {
				l.chainMap = make(map[uint64]uint32, 1) // want "make"
			}
			l.acc += uint64(l.chainMap[pc]) // want "map access"
		}
	}
}

// hotLaneSweepGood is the shipped shape: chains live in the dense slab
// indexed by a slot computed once outside the hot path, and the lane
// loop touches nothing but slices.
//
//sipt:hotpath
func hotLaneSweepGood(lanes []laneState, slots []uint32) {
	for li := range lanes {
		l := &lanes[li]
		for _, s := range slots {
			l.acc += uint64(l.chain[s])
		}
	}
}

// hotAck demonstrates acknowledging an intentional cold branch.
//
//sipt:hotpath
func hotAck(m map[uint64]uint64, pc uint64) uint64 {
	//siptlint:allow hotalloc: cold fallback, taken only for replayed real traces
	return m[pc]
}

// cold is unannotated: the same constructs are fine here.
func cold(m map[int]int) int {
	s := make([]int, 1)
	//siptlint:allow detrand: fixture helper, not simulation code
	for _, v := range m {
		s[0] += v
	}
	return s[0]
}
