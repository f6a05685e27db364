package trace

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"sipt/internal/memaddr"
)

func TestRecordFlags(t *testing.T) {
	ld := Record{Flags: 0}
	st := Record{Flags: FlagStore}
	hg := Record{Flags: FlagHuge}
	if ld.IsStore() || ld.Huge() {
		t.Error("load flags wrong")
	}
	if !st.IsStore() || st.Huge() {
		t.Error("store flags wrong")
	}
	if !hg.Huge() || hg.IsStore() {
		t.Error("huge flags wrong")
	}
}

func TestRecordInstructions(t *testing.T) {
	if got := (Record{Gap: 5}).Instructions(); got != 6 {
		t.Errorf("Instructions = %d, want 6", got)
	}
}

func TestSliceReader(t *testing.T) {
	recs := []Record{{PC: 1}, {PC: 2}, {PC: 3}}
	r := NewSliceReader(recs)
	var got Record
	for i, want := range recs {
		if err := r.NextInto(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if err := r.NextInto(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	r.Reset()
	if r.NextInto(&got); got.PC != 1 {
		t.Error("Reset did not rewind")
	}
}

func TestCollect(t *testing.T) {
	r := NewSliceReader([]Record{{PC: 1}, {PC: 2}, {PC: 3}})
	got, err := Collect(r, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("Collect(2) = %d recs, err %v", len(got), err)
	}
	r.Reset()
	got, err = Collect(r, 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("Collect(0) = %d recs, err %v", len(got), err)
	}
}

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:      rng.Uint64(),
			VA:      memaddr.VAddr(rng.Uint64()),
			PA:      memaddr.PAddr(rng.Uint64()),
			Gap:     uint16(rng.Intn(1 << 16)),
			DepDist: uint8(rng.Intn(256)),
			Flags:   uint8(rng.Intn(4)),
		}
	}
	return recs
}

func TestLimit(t *testing.T) {
	r := Limit(NewSliceReader(randomRecords(10, 3)), 4)
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("Limit yielded %d records, want 4", len(got))
	}
	var rec Record
	if err := r.NextInto(&rec); !errors.Is(err, io.EOF) {
		t.Error("Limit must return EOF after n records")
	}
}
