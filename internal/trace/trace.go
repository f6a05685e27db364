// Package trace defines the memory-access trace format the simulator
// consumes: one record per load or store, annotated with the virtual
// and physical addresses, the page kind, the number of non-memory
// instructions preceding the access, and the load-use dependence
// distance. This mirrors what the paper extracted with its modified
// Macsim trace generator plus Linux pagemap/kpageflags (PC, VA, PA, and
// page flags for every access).
//
// Every producer — the synthetic generator, a replayed buffer, a
// decoded trace file — is a Reader, drained one record at a time with
// NextInto. The on-disk format lives in internal/tracefile.
package trace

import (
	"errors"
	"io"

	"sipt/internal/memaddr"
)

// Flag bits for Record.Flags.
const (
	// FlagStore marks a store; loads have the bit clear.
	FlagStore uint8 = 1 << iota
	// FlagHuge marks an access whose page is backed by a 2 MiB page.
	FlagHuge
)

// Record describes one memory access plus the instruction-stream
// context around it.
type Record struct {
	PC      uint64        // program counter of the memory instruction
	VA      memaddr.VAddr // virtual byte address accessed
	PA      memaddr.PAddr // physical byte address (post page-fault)
	Gap     uint16        // non-memory instructions since the previous access
	DepDist uint8         // instructions until the first consumer of a load (0 = unused / store)
	Flags   uint8
}

// IsStore reports whether the record is a store.
func (r Record) IsStore() bool { return r.Flags&FlagStore != 0 }

// Huge reports whether the record's page is huge.
func (r Record) Huge() bool { return r.Flags&FlagHuge != 0 }

// Instructions returns the number of dynamic instructions the record
// accounts for: its gap of non-memory instructions plus itself.
func (r Record) Instructions() uint64 { return uint64(r.Gap) + 1 }

// Reader yields trace records in program order.
type Reader interface {
	// NextInto writes the next record into *rec. It returns io.EOF when
	// the trace is exhausted; *rec is undefined after a non-nil error.
	NextInto(rec *Record) error
}

// SliceReader replays records from memory.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader returns a Reader over recs.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// NextInto implements Reader.
func (s *SliceReader) NextInto(rec *Record) error {
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// Reset rewinds to the first record.
func (s *SliceReader) Reset() { s.pos = 0 }

// Collect drains r into a slice, up to max records (0 = unlimited).
func Collect(r Reader, max int) ([]Record, error) {
	var out []Record
	var rec Record
	for max == 0 || len(out) < max {
		err := r.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Limit wraps r so that at most n records are produced.
func Limit(r Reader, n uint64) Reader { return &limitReader{r: r, left: n} }

type limitReader struct {
	r    Reader
	left uint64
}

func (l *limitReader) NextInto(rec *Record) error {
	if l.left == 0 {
		return io.EOF
	}
	err := l.r.NextInto(rec)
	if err == nil {
		l.left--
	}
	return err
}
