package predictor

import "math"

// SizedPerceptron is a bypass predictor with configurable table size
// and history length, for the paper's Sec. V sensitivity analysis
// ("increasing the number of perceptrons and increasing the history
// length ... did not show strong sensitivity"). The default Perceptron
// is the fixed-size fast path used inside the SIPT engine; this
// variant backs the ablation experiment.
type SizedPerceptron struct {
	entries int
	histLen int
	theta   int32
	weights [][]int8
	history []int8
	stats   PerceptronStats
}

// NewSizedPerceptron builds a predictor with the given table entries
// (power of two recommended) and global history length.
func NewSizedPerceptron(entries, histLen int) *SizedPerceptron {
	if entries <= 0 || histLen <= 0 {
		panic("predictor: SizedPerceptron dimensions must be positive")
	}
	p := &SizedPerceptron{
		entries: entries,
		histLen: histLen,
		theta:   int32(math.Floor(1.93*float64(histLen) + 14)),
		weights: make([][]int8, entries),
		history: make([]int8, histLen),
	}
	backing := make([]int8, entries*(histLen+1))
	for i := range p.weights {
		p.weights[i], backing = backing[:histLen+1:histLen+1], backing[histLen+1:]
	}
	for i := range p.history {
		p.history[i] = 1
	}
	return p
}

// Stats returns a copy of the outcome counters.
func (p *SizedPerceptron) Stats() PerceptronStats { return p.stats }

// StorageBits returns the table's storage cost in bits.
func (p *SizedPerceptron) StorageBits() int {
	return p.entries * (p.histLen + 1) * WeightBits
}

func (p *SizedPerceptron) index(pc uint64) int {
	return int((pc >> 2) % uint64(p.entries))
}

func (p *SizedPerceptron) output(pc uint64) int32 {
	w := p.weights[p.index(pc)]
	y := int32(w[0])
	for i := 0; i < p.histLen; i++ {
		y += int32(w[i+1]) * int32(p.history[i])
	}
	return y
}

// Predict returns true to speculate.
func (p *SizedPerceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

// Train updates the predictor with the true outcome (see
// Perceptron.Train).
func (p *SizedPerceptron) Train(pc uint64, predicted, unchanged bool) {
	p.stats.record(predicted, unchanged)
	t := int32(-1)
	if unchanged {
		t = 1
	}
	y := p.output(pc)
	if (y >= 0) != unchanged || abs32(y) <= p.theta {
		w := p.weights[p.index(pc)]
		w[0] = clampWeight(int32(w[0]) + t)
		for i := 0; i < p.histLen; i++ {
			w[i+1] = clampWeight(int32(w[i+1]) + t*int32(p.history[i]))
		}
	}
	copy(p.history[1:], p.history[:p.histLen-1])
	if unchanged {
		p.history[0] = 1
	} else {
		p.history[0] = -1
	}
}

// Counter is the simple per-PC two-bit saturating-counter bypass
// predictor the paper evaluated and rejected ("their average accuracy
// is only ~85% and not consistent across applications"); kept as the
// ablation baseline.
type Counter struct {
	entries []uint8
	stats   PerceptronStats
}

// NewCounter builds a table of 2-bit counters, initialised weakly
// toward speculation.
func NewCounter(entries int) *Counter {
	if entries <= 0 {
		panic("predictor: Counter entries must be positive")
	}
	c := &Counter{entries: make([]uint8, entries)}
	for i := range c.entries {
		c.entries[i] = 2 // weakly speculate
	}
	return c
}

// Stats returns a copy of the outcome counters.
func (c *Counter) Stats() PerceptronStats { return c.stats }

func (c *Counter) index(pc uint64) int { return int((pc >> 2) % uint64(len(c.entries))) }

// Predict returns true to speculate.
func (c *Counter) Predict(pc uint64) bool { return c.entries[c.index(pc)] >= 2 }

// Train updates the counter with the true outcome.
func (c *Counter) Train(pc uint64, predicted, unchanged bool) {
	c.stats.record(predicted, unchanged)
	e := &c.entries[c.index(pc)]
	if unchanged {
		if *e < 3 {
			*e++
		}
	} else if *e > 0 {
		*e--
	}
}
