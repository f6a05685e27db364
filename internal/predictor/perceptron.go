// Package predictor implements the prediction structures of the
// paper's Sections V and VI: a PC-indexed global-history perceptron
// that decides speculate-vs-bypass (Fig. 8), and the BTB-like index
// delta buffer (IDB) that predicts the VA->PA index-bit delta
// (Fig. 11). Both follow the sizes the paper reports: 64 entries,
// 13 six-bit weights per perceptron, 12 outcome-history bits.
package predictor

import (
	"math"
	"math/rand"
)

// Perceptron parameters, following Jimenez & Lin's smallest
// global-history configuration as the paper specifies.
const (
	// PerceptronEntries is the number of perceptrons in the table.
	PerceptronEntries = 64
	// HistoryLen is the number of global outcome-history bits (h);
	// each perceptron has h+1 = 13 weights including the bias.
	HistoryLen = 12
	// WeightBits is the width of each signed weight.
	WeightBits = 6
	// weightMax/weightMin are the saturation bounds of a 6-bit weight.
	weightMax = 1<<(WeightBits-1) - 1    // +31
	weightMin = -(1 << (WeightBits - 1)) // -32
)

// theta is Jimenez & Lin's training threshold: floor(1.93*h + 14).
var theta = int32(math.Floor(1.93*float64(HistoryLen) + 14))

// PerceptronStats counts the four prediction outcomes of Fig. 9.
// "Positive" means the speculated index bits survive translation.
type PerceptronStats struct {
	Predictions uint64
	// CorrectSpeculate: predicted speculate, bits unchanged (fast access).
	CorrectSpeculate uint64
	// CorrectBypass: predicted bypass, bits changed (saved an access).
	CorrectBypass uint64
	// OpportunityLoss: predicted bypass, bits unchanged (fast access
	// squandered).
	OpportunityLoss uint64
	// ExtraAccess: predicted speculate, bits changed (wasted L1 access).
	ExtraAccess uint64
}

// record tallies one prediction: predicted is the speculate decision,
// unchanged the true outcome.
//
//sipt:hotpath
func (s *PerceptronStats) record(predicted, unchanged bool) {
	s.Predictions++
	switch {
	case predicted && unchanged:
		s.CorrectSpeculate++
	case !predicted && !unchanged:
		s.CorrectBypass++
	case !predicted && unchanged:
		s.OpportunityLoss++
	default:
		s.ExtraAccess++
	}
}

// Accuracy returns the fraction of correct predictions.
func (s PerceptronStats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.CorrectSpeculate+s.CorrectBypass) / float64(s.Predictions)
}

// Perceptron is the speculation bypass predictor. The zero value is
// not usable; call NewPerceptron.
type Perceptron struct {
	// weights[e][0] is the bias w0; weights[e][1..h] pair with history.
	weights [PerceptronEntries][HistoryLen + 1]int8
	// history holds the last h outcomes as +1 (unchanged) / -1 (changed),
	// most recent at index 0.
	history [HistoryLen]int8
	stats   PerceptronStats

	// lastPC/lastY memoise the most recent Predict's dot product so the
	// paired Train immediately after does not recompute it (the weights
	// and history are untouched in between). lastOK guards staleness.
	lastPC uint64
	lastY  int32
	lastOK bool
}

// NewPerceptron returns a predictor with zero weights and an
// all-"unchanged" initial history (speculation is the common case, and
// the paper reports results without any warmup).
func NewPerceptron() *Perceptron {
	p := &Perceptron{}
	for i := range p.history {
		p.history[i] = 1
	}
	return p
}

// Stats returns a copy of the outcome counters.
func (p *Perceptron) Stats() PerceptronStats { return p.stats }

//sipt:hotpath
func (p *Perceptron) index(pc uint64) int {
	// Memory instructions are word-ish aligned; drop the low bits so
	// consecutive static loads land in different entries.
	return int((pc >> 2) % PerceptronEntries)
}

// output computes y = w0 + sum(x_i * w_i) for the entry selected by pc.
// The dot product is unrolled: twelve fixed-width terms compile to
// straight-line loads and multiply-adds, which measurably beats the
// counted loop on this per-record path.
//
//sipt:hotpath
func (p *Perceptron) output(pc uint64) int32 {
	w := &p.weights[p.index(pc)]
	h := &p.history
	y := int32(w[0])
	y += int32(w[1]) * int32(h[0])
	y += int32(w[2]) * int32(h[1])
	y += int32(w[3]) * int32(h[2])
	y += int32(w[4]) * int32(h[3])
	y += int32(w[5]) * int32(h[4])
	y += int32(w[6]) * int32(h[5])
	y += int32(w[7]) * int32(h[6])
	y += int32(w[8]) * int32(h[7])
	y += int32(w[9]) * int32(h[8])
	y += int32(w[10]) * int32(h[9])
	y += int32(w[11]) * int32(h[10])
	y += int32(w[12]) * int32(h[11])
	return y
}

// Predict returns true to speculate (use the virtual index bits) and
// false to bypass speculation. Only the PC is used, so the prediction
// can start before the address is generated — the property the paper
// leans on to keep SIPT off the critical path.
//
//sipt:hotpath
func (p *Perceptron) Predict(pc uint64) bool {
	y := p.output(pc)
	p.lastPC, p.lastY, p.lastOK = pc, y, true
	return y >= 0
}

// Train updates the predictor with the true outcome for pc:
// unchanged == true when the speculative index bits survived
// translation. predicted must be the value Predict returned for this
// access; outcome accounting (Fig. 9) happens here.
//
//sipt:hotpath
func (p *Perceptron) Train(pc uint64, predicted, unchanged bool) {
	p.stats.record(predicted, unchanged)
	t := int32(-1)
	if unchanged {
		t = 1
	}
	y := p.lastY
	if !p.lastOK || p.lastPC != pc {
		y = p.output(pc)
	}
	p.lastOK = false
	// Jimenez & Lin: train on mispredict or when |y| <= theta.
	if (y >= 0) != unchanged || abs32(y) <= theta {
		w := &p.weights[p.index(pc)]
		w[0] = clampWeight(int32(w[0]) + t)
		for i := 0; i < HistoryLen; i++ {
			w[i+1] = clampWeight(int32(w[i+1]) + t*int32(p.history[i]))
		}
	}
	// Shift the global history (most recent first).
	copy(p.history[1:], p.history[:HistoryLen-1])
	if unchanged {
		p.history[0] = 1
	} else {
		p.history[0] = -1
	}
}

//sipt:hotpath
func clampWeight(v int32) int8 {
	if v > weightMax {
		return weightMax
	}
	if v < weightMin {
		return weightMin
	}
	return int8(v)
}

//sipt:hotpath
func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// StorageBits returns the predictor's storage cost in bits; the paper
// estimates 624 B total (64 entries x 13 weights x 6 b = 4992 b).
func (p *Perceptron) StorageBits() int {
	return PerceptronEntries * (HistoryLen + 1) * WeightBits
}

// IDBStats counts index-delta-buffer outcomes (Fig. 12).
type IDBStats struct {
	Lookups uint64
	Hits    uint64 // predicted delta matched the true delta
	Misses  uint64
}

// HitRate returns hits/lookups.
func (s IDBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// IDB is the index delta buffer: a PC-indexed table of k-bit VA->PA
// index deltas, sized to match the perceptron (64 entries). Like a BTB
// it is read at fetch/decode with only the PC, off the critical path;
// the predicted delta is added to the speculative index bits after
// address generation (a k-bit add with no carry propagation).
type IDB struct {
	bits   uint // speculative index bits k (1..3 in the paper)
	mask   uint64
	deltas []uint8
	valid  []bool
	// lastPage tracks the 4 KiB page each entry last saw; only used by
	// the no-contiguity sensitivity mode (Sec. VII-B).
	lastPage []uint64
	noContig bool
	rng      *rand.Rand
	stats    IDBStats
}

// NewIDB creates an IDB for k speculative bits with the paper's entry
// count (64, matching the perceptron). noContig enables the paper's
// "removing >4KiB contiguity" mode: when an entry is consulted for a
// page other than the one it last saw, the predicted delta is replaced
// by a random one, mimicking a system with zero inter-page mapping
// contiguity without modifying the OS model.
func NewIDB(bits uint, noContig bool, seed int64) *IDB {
	return NewIDBSized(bits, PerceptronEntries, noContig, seed)
}

// NewIDBSized is NewIDB with a configurable entry count, for the
// sensitivity ablation.
func NewIDBSized(bits uint, entries int, noContig bool, seed int64) *IDB {
	if bits == 0 || bits > 8 {
		panic("predictor: IDB bits must be 1..8")
	}
	if entries <= 0 {
		panic("predictor: IDB entries must be positive")
	}
	idb := &IDB{
		bits: bits, mask: uint64(1)<<bits - 1, noContig: noContig,
		deltas:   make([]uint8, entries),
		valid:    make([]bool, entries),
		lastPage: make([]uint64, entries),
	}
	if noContig {
		idb.rng = rand.New(rand.NewSource(seed))
	}
	return idb
}

// Stats returns a copy of the counters.
func (i *IDB) Stats() IDBStats { return i.stats }

//sipt:hotpath
func (i *IDB) index(pc uint64) int { return int((pc >> 2) % uint64(len(i.deltas))) }

// Predict returns the delta to add to the speculative virtual index
// bits. page is the access's 4 KiB virtual page number, used only by
// the no-contiguity mode. ok is false when the entry has never been
// trained (the caller falls back to delta 0, i.e. naive speculation).
//
//sipt:hotpath
func (i *IDB) Predict(pc uint64, page uint64) (delta uint64, ok bool) {
	e := i.index(pc)
	if !i.valid[e] {
		return 0, false
	}
	if i.noContig && i.lastPage[e] != page {
		// Zero contiguity beyond a page: a new page implies an unrelated
		// delta; model it as random (paper Sec. VII-B).
		return uint64(i.rng.Int63()) & i.mask, true
	}
	return uint64(i.deltas[e]) & i.mask, true
}

// Train records the true delta for pc. correct must reflect whether the
// value Predict returned matched truth; the caller knows because it
// carried the prediction through translation.
//
//sipt:hotpath
func (i *IDB) Train(pc uint64, page uint64, trueDelta uint64, predicted, correct bool) {
	if predicted {
		i.stats.Lookups++
		if correct {
			i.stats.Hits++
		} else {
			i.stats.Misses++
		}
	}
	e := i.index(pc)
	i.deltas[e] = uint8(trueDelta & i.mask)
	i.valid[e] = true
	i.lastPage[e] = page
}

// StorageBits returns the IDB storage cost in bits (entries x k).
func (i *IDB) StorageBits() int { return len(i.deltas) * int(i.bits) }
