package predictor

import (
	"math/rand"
	"testing"
)

// biasedStream trains a bypass predictor on a synthetic PC stream where
// each PC is strongly biased toward one outcome, and returns accuracy.
func biasedStream(t *testing.T, train func(pc uint64) (predict func() bool, learn func(bool, bool)), nPCs int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	bias := make(map[uint64]bool)
	for i := 0; i < nPCs; i++ {
		bias[uint64(0x400000+i*4)] = i%3 != 0
	}
	var correct, total int
	for i := 0; i < 40000; i++ {
		pc := uint64(0x400000 + rng.Intn(nPCs)*4)
		outcome := bias[pc]
		if rng.Float64() < 0.05 {
			outcome = !outcome
		}
		predict, learn := train(pc)
		p := predict()
		if p == outcome {
			correct++
		}
		total++
		learn(p, outcome)
	}
	return float64(correct) / float64(total)
}

func TestSizedPerceptronMatchesFixedConfiguration(t *testing.T) {
	// The sized predictor at 64x12 must behave like the fixed one on an
	// identical stream (same weights algorithm).
	fixed := NewPerceptron()
	sized := NewSizedPerceptron(PerceptronEntries, HistoryLen)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		pc := uint64(0x400000 + rng.Intn(48)*4)
		outcome := rng.Float64() < 0.8
		pf, ps := fixed.Predict(pc), sized.Predict(pc)
		if pf != ps {
			t.Fatalf("iteration %d: fixed=%v sized=%v", i, pf, ps)
		}
		fixed.Train(pc, pf, outcome)
		sized.Train(pc, ps, outcome)
	}
	if fixed.Stats() != sized.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", fixed.Stats(), sized.Stats())
	}
}

// FuzzSizedPerceptronMatchesPerceptron drives NewSizedPerceptron(64,
// 12) and NewPerceptron through one arbitrary op sequence and requires
// the same answer to every Predict and the same Stats after every op.
// Each op is two bytes, flags then PC:
//
//	bit 0   0: Predict, 1: Train
//	bit 1   Train's predicted flag, unless bit 4 is set
//	bit 2   Train's true outcome (unchanged)
//	bit 3   Train the PC of the last Predict instead of the PC byte
//	bit 4   pass the last Predict's answer as predicted
//	bits 5-6 the PC's low bits, which the table index drops
//
// A Train whose PC is not the last Predict's, or that follows another
// Train, makes Perceptron recompute the dot product instead of reading
// its lastPC/lastY memo; Fig. 9's outcome tally sees every combination
// of predicted and unchanged.
//
//	go test -run='^$' -fuzz=FuzzSizedPerceptronMatchesPerceptron ./internal/predictor/
func FuzzSizedPerceptronMatchesPerceptron(f *testing.F) {
	// A paired Predict/Train stream on two PCs, a Train of another PC
	// between a Predict and its Train, unpaired Trains, and a stream
	// that fails if Train reads the memo without checking its PC.
	f.Add([]byte{0x00, 1, 0x1d, 0, 0x00, 2, 0x19, 0, 0x00, 1, 0x1f, 0, 0x00, 2, 0x1b, 0})
	f.Add([]byte{0x00, 1, 0x05, 3, 0x0d, 0, 0x60, 1, 0x09, 0, 0x03, 9, 0x01, 9})
	f.Add([]byte{0x07, 5, 0x07, 5, 0x07, 5, 0x01, 5, 0x00, 5, 0x41, 69})
	f.Add([]byte("101000100010101010101011111111011202"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fixed, sized := NewPerceptron(), NewSizedPerceptron(PerceptronEntries, HistoryLen)
		var lastPC uint64
		var lastPred bool
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i]
			pc := uint64(data[i+1])<<2 | uint64(op>>5)&3
			if op&1 == 0 {
				pf, ps := fixed.Predict(pc), sized.Predict(pc)
				if pf != ps {
					t.Fatalf("op %d: Predict(%#x) = %v, sized %v", i/2, pc, pf, ps)
				}
				lastPC, lastPred = pc, pf
			} else {
				if op&8 != 0 {
					pc = lastPC
				}
				predicted := op&2 != 0
				if op&16 != 0 {
					predicted = lastPred
				}
				unchanged := op&4 != 0
				fixed.Train(pc, predicted, unchanged)
				sized.Train(pc, predicted, unchanged)
			}
			if fixed.Stats() != sized.Stats() {
				t.Fatalf("op %d: Stats %+v, sized %+v", i/2, fixed.Stats(), sized.Stats())
			}
		}
	})
}

func TestSizedPerceptronInsensitiveToUpsizing(t *testing.T) {
	// Paper Sec. V: larger tables / longer histories do not move the
	// needle much once accuracy is high.
	run := func(entries, hist int) float64 {
		p := NewSizedPerceptron(entries, hist)
		return biasedStream(t, func(pc uint64) (func() bool, func(bool, bool)) {
			return func() bool { return p.Predict(pc) },
				func(pred, out bool) { p.Train(pc, pred, out) }
		}, 32)
	}
	small := run(64, 12)
	big := run(512, 32)
	if small < 0.88 {
		t.Fatalf("small predictor accuracy %.3f too low", small)
	}
	if diff := big - small; diff > 0.03 || diff < -0.03 {
		t.Errorf("strong sensitivity to size: 64x12 %.3f vs 512x32 %.3f", small, big)
	}
}

func TestCounterWorseThanPerceptron(t *testing.T) {
	// Paper: counter-based predictors reach only ~85% and are less
	// consistent; they must not beat the perceptron on a history-biased
	// stream.
	rng := rand.New(rand.NewSource(11))
	perc := NewPerceptron()
	ctr := NewCounter(64)
	// A stream with alternating phases per PC: counters lag phase
	// changes, perceptrons track them via global history.
	var pCorrect, cCorrect, total int
	for i := 0; i < 60000; i++ {
		pc := uint64(0x400000 + rng.Intn(16)*4)
		outcome := (i/50)%2 == 0 // phase flips every 50 accesses
		pp := perc.Predict(pc)
		cp := ctr.Predict(pc)
		if pp == outcome {
			pCorrect++
		}
		if cp == outcome {
			cCorrect++
		}
		total++
		perc.Train(pc, pp, outcome)
		ctr.Train(pc, cp, outcome)
	}
	pa, ca := float64(pCorrect)/float64(total), float64(cCorrect)/float64(total)
	if pa <= ca {
		t.Errorf("perceptron %.3f should beat counter %.3f on phased stream", pa, ca)
	}
}

func TestCounterSaturates(t *testing.T) {
	c := NewCounter(4)
	pc := uint64(0x400000)
	for i := 0; i < 10; i++ {
		c.Train(pc, c.Predict(pc), true)
	}
	if !c.Predict(pc) {
		t.Error("saturated-up counter must speculate")
	}
	for i := 0; i < 10; i++ {
		c.Train(pc, c.Predict(pc), false)
	}
	if c.Predict(pc) {
		t.Error("saturated-down counter must bypass")
	}
}

func TestSizedPerceptronStorage(t *testing.T) {
	p := NewSizedPerceptron(128, 16)
	if got := p.StorageBits(); got != 128*17*WeightBits {
		t.Errorf("StorageBits = %d", got)
	}
}

func TestSizedPerceptronPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero entries")
		}
	}()
	NewSizedPerceptron(0, 12)
}

func TestCounterPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero entries")
		}
	}()
	NewCounter(0)
}
