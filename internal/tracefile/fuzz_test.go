package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"sipt/internal/sim"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// FuzzReadBuffer feeds arbitrary bytes — seeded with a valid file and
// targeted mutations of its header fields — through the full decode
// path. The invariant: never panic, never over-allocate on forged
// counts, and on success the decoded record count matches the header.
func FuzzReadBuffer(f *testing.F) {
	prof, err := workload.Lookup("libquantum")
	if err != nil {
		f.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, 1, 500)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := tracefile.Encode(tracefile.Meta{App: "libquantum", Scenario: vm.ScenarioNormal, Seed: 1}, buf)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(enc)
	f.Add(enc[:tracefile.HeaderSize])
	f.Add(enc[:len(enc)-9]) // truncated payload
	f.Add([]byte{})
	f.Add([]byte("SIPTRC\r\n"))
	mut := func(off int, v uint64, n int) []byte {
		c := append([]byte(nil), enc...)
		switch n {
		case 2:
			binary.LittleEndian.PutUint16(c[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(c[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(c[off:], v)
		}
		return c
	}
	// resum recomputes the header checksum (CRC32C over the fixed header
	// up to the checksum field, then the app name), so a mutated field
	// reaches the checks past the header.
	resum := func(c []byte) []byte {
		appLen := int(binary.LittleEndian.Uint32(c[36:]))
		tab := crc32.MakeTable(crc32.Castagnoli)
		crc := crc32.Checksum(c[:60], tab)
		crc = crc32.Update(crc, tab, c[tracefile.HeaderSize:tracefile.HeaderSize+appLen])
		binary.LittleEndian.PutUint32(c[60:], crc)
		return c
	}
	f.Add(mut(8, 0xffff, 2))                          // version skew
	f.Add(mut(10, 1, 2))                              // unknown flag
	f.Add(mut(12, 1<<31, 4))                          // scenario out of range
	f.Add(mut(24, 1<<62, 8))                          // forged record count
	f.Add(mut(32, 0, 4))                              // zero chunk size
	f.Add(mut(32, 1<<30, 4))                          // huge chunk size
	f.Add(mut(36, 1<<20, 4))                          // huge app length
	f.Add(append(enc[:0:0], append(enc, 1, 2, 3)...)) // trailing bytes
	// A validly checksummed header claiming 2^40 records (16 TiB) over
	// a body of one short chunk: it must fail on the body, never on the
	// allocation.
	huge := resum(mut(24, 1<<40, 8))
	f.Add(huge[:tracefile.HeaderSize+16+tracefile.ChunkHeaderSize+32])

	f.Fuzz(func(t *testing.T, data []byte) {
		// A header whose record count the input cannot hold is forged:
		// measure what decoding it allocates (only then, since reading
		// the allocator's stats stops the world). The records' storage
		// is bounded by the input; only a chunk's read buffer, sized by a
		// checksummed chunk header before its payload arrives, may exceed
		// it, by at most one maximal chunk (16 MiB).
		forged := len(data) >= 32 && binary.LittleEndian.Uint64(data[24:]) > uint64(len(data))/16
		var before, after runtime.MemStats
		if forged {
			runtime.ReadMemStats(&before)
		}
		meta, dec, err := tracefile.ReadBuffer(bytes.NewReader(data))
		if forged {
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(data))+20<<20 {
				t.Fatalf("decoding %d bytes with a forged count allocated %d bytes", len(data), alloc)
			}
		}
		if err != nil {
			return
		}
		if uint64(dec.Len()) != meta.Records {
			t.Fatalf("accepted file: %d records decoded, header says %d", dec.Len(), meta.Records)
		}
		// An accepted file must re-encode and re-read to the same meta
		// (the words may legitimately differ from any seed, but the
		// format must stay self-consistent).
		enc2, err := tracefile.Encode(meta, dec)
		if err != nil {
			t.Fatalf("re-encoding an accepted file: %v", err)
		}
		meta2, dec2, err := tracefile.ReadBuffer(bytes.NewReader(enc2))
		if err != nil {
			t.Fatalf("re-reading a re-encoded file: %v", err)
		}
		if meta2 != meta || dec2.Len() != dec.Len() {
			t.Fatalf("re-encode changed identity: %+v vs %+v", meta2, meta)
		}
	})
}
