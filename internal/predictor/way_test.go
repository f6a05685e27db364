package predictor

import "testing"

func TestPCWayColdStart(t *testing.T) {
	p := NewPCWay(64)
	if got := p.Predict(0x400000, 5); got != -1 {
		t.Errorf("cold Predict = %d, want -1", got)
	}
	p.Record(0x400000, 5, 3)
	if got := p.Predict(0x400000, 5); got != 3 {
		t.Errorf("Predict after Record = %d, want 3", got)
	}
}

func TestPCWaySeparatesInterleavedStreams(t *testing.T) {
	// Two PCs ping-pong in the same set, each always hitting its own
	// way: an MRU predictor sees alternation and always misses, while
	// PCWay learns both streams after one access each.
	p := NewPCWay(256)
	var hits, mruHits int
	mru := -1
	for i := 0; i < 200; i++ {
		pc := uint64(0x400000 + (i%2)*4)
		way := i % 2
		if p.Predict(pc, 7) == way {
			hits++
		}
		if mru == way {
			mruHits++
		}
		p.Record(pc, 7, way)
		mru = way
	}
	if mruHits != 0 {
		t.Errorf("MRU hit %d times on interleaved streams, want 0", mruHits)
	}
	if hits != 198 {
		t.Errorf("PCWay hit %d of 200 on interleaved streams, want 198 (all but the two cold entries)", hits)
	}
}

func TestPCWayConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPCWay accepted a non-positive size")
		}
	}()
	NewPCWay(-1)
}
