package predictor

import "fmt"

// Way prediction (Sec. VII-A). The paper evaluates the simple scheme of
// Inoue et al.: the MRU way of each set is always predicted, with 3
// bits of metadata per set for an 8-way cache. The simulator reads that
// prediction from the cache's own recency head
// (cache.AccessResult.MRUHit), so it needs no table here. The paper
// notes that "fancy predictors may increase the accuracy" but finds MRU
// already high and robust; PCWay is that fancier comparison point.

// PCWay is a table indexed by a hash of the memory instruction's PC and
// the set, capturing which way a given static access streams through.
// It can beat MRU when several streams interleave in one set.
type PCWay struct {
	ways []int8
}

// NewPCWay builds a table with the given number of entries.
func NewPCWay(entries int) *PCWay {
	if entries <= 0 {
		panic(fmt.Sprintf("predictor: PCWay entries = %d", entries))
	}
	p := &PCWay{ways: make([]int8, entries)}
	for i := range p.ways {
		p.ways[i] = -1
	}
	return p
}

func (p *PCWay) index(pc, set uint64) uint64 {
	return ((pc >> 2) ^ set*0x9e3779b9) % uint64(len(p.ways))
}

// Predict returns the way to fetch first for an access by pc to the
// given set, or -1 when the entry has never been recorded.
func (p *PCWay) Predict(pc, set uint64) int {
	return int(p.ways[p.index(pc, set)])
}

// Record notes that pc's access to set found (on a hit) or installed
// (on a fill) its line in way.
func (p *PCWay) Record(pc, set uint64, way int) {
	p.ways[p.index(pc, set)] = int8(way)
}
