package tracefile_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

func materialize(t *testing.T, app string, sc vm.Scenario, seed int64, records uint64) *replay.Buffer {
	t.Helper()
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, sc, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestEncodeRoundTrip asserts Encode -> ReadBuffer is lossless: same
// meta, same packed words, so replay is bit-identical by construction.
func TestEncodeRoundTrip(t *testing.T) {
	meta := tracefile.Meta{App: "libquantum", Scenario: vm.ScenarioFragmented, Seed: 42}
	buf := materialize(t, meta.App, meta.Scenario, meta.Seed, 10_000)
	enc, err := tracefile.Encode(meta, buf)
	if err != nil {
		t.Fatal(err)
	}
	got, dec, err := tracefile.ReadBuffer(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	meta.Records = uint64(buf.Len())
	if got != meta {
		t.Fatalf("meta round-trip: got %+v want %+v", got, meta)
	}
	if !reflect.DeepEqual(dec.Words(), buf.Words()) {
		t.Fatal("decoded words differ from the materialised buffer")
	}
	if m, err := tracefile.ReadMeta(bytes.NewReader(enc)); err != nil || m != meta {
		t.Fatalf("ReadMeta: %+v, %v", m, err)
	}
}

// TestReadBufferAllocs: decoding from a source that reports its length
// allocates the records' storage once instead of growing it chunk by
// chunk, and a source that does not decodes to the same buffer.
func TestReadBufferAllocs(t *testing.T) {
	meta := tracefile.Meta{App: "mcf", Scenario: vm.ScenarioNormal, Seed: 5}
	buf := materialize(t, meta.App, meta.Scenario, meta.Seed, 50_000)
	enc, err := tracefile.Encode(meta, buf)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := tracefile.ReadBuffer(bytes.NewReader(enc)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("ReadBuffer of %d records: %.0f allocations, want <= 10", buf.Len(), allocs)
	}
	_, dec, err := tracefile.ReadBuffer(io.MultiReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Words(), buf.Words()) {
		t.Fatal("decoding without a length hint changed the words")
	}
}

// TestWriterMatchesEncode asserts the streaming Writer (unknown count,
// backpatched header) produces the byte-identical file Encode builds
// from a materialised buffer.
func TestWriterMatchesEncode(t *testing.T) {
	meta := tracefile.Meta{App: "ycsb", Scenario: vm.ScenarioNormal, Seed: 7}
	buf := materialize(t, meta.App, meta.Scenario, meta.Seed, 9_000) // spans chunks, partial tail
	enc, err := tracefile.Encode(meta, buf)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "t.sipt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(f, meta)
	if err != nil {
		t.Fatal(err)
	}
	cur := buf.Cursor()
	var rec trace.Record
	for {
		if err := cur.NextInto(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
		if err := w.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(buf.Len()) {
		t.Fatalf("writer count %d, want %d", w.Count(), buf.Len())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, enc) {
		t.Fatalf("streaming writer output differs from Encode (%d vs %d bytes)", len(disk), len(enc))
	}
}

// TestFileReplayMatchesLive is the tentpole equality gate: simulating
// from a decoded trace file reproduces live generation bit-for-bit,
// both via the materialised-buffer path (RunBuffer) and the streaming
// reader path (RunTrace).
func TestFileReplayMatchesLive(t *testing.T) {
	const (
		app     = "libquantum"
		seed    = int64(1)
		records = uint64(5_000)
	)
	sc := vm.ScenarioNormal
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)

	live, err := sim.RunApp(context.Background(), prof, cfg, sc, seed, records)
	if err != nil {
		t.Fatal(err)
	}

	enc, err := tracefile.Encode(tracefile.Meta{App: app, Scenario: sc, Seed: seed},
		materialize(t, app, sc, seed, records))
	if err != nil {
		t.Fatal(err)
	}

	_, buf, err := tracefile.ReadBuffer(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := sim.RunBuffer(context.Background(), app, buf, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, live) {
		t.Fatal("RunBuffer over the decoded file differs from live generation")
	}

	r, err := tracefile.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := sim.RunTrace(context.Background(), app, r, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, live) {
		t.Fatal("streaming RunTrace over the file differs from live generation")
	}
}

// corrupt returns a copy of b with the byte at off xored.
func corrupt(b []byte, off int) []byte {
	c := append([]byte(nil), b...)
	c[off] ^= 0x40
	return c
}

// TestRejectsDamage walks the failure modes the format must catch:
// magic, version, flags, scenario, checksums, truncation, layout, and
// trailing garbage all fail loudly with ErrFormat.
func TestRejectsDamage(t *testing.T) {
	meta := tracefile.Meta{App: "gcc", Scenario: vm.ScenarioTHPOff, Seed: 5}
	enc, err := tracefile.Encode(meta, materialize(t, meta.App, meta.Scenario, meta.Seed, 6_000))
	if err != nil {
		t.Fatal(err)
	}

	version := corrupt(enc, 8)
	flags := corrupt(enc, 10)
	scenario := corrupt(enc, 12)
	headerCRC := corrupt(enc, 24) // record count no longer matches header CRC
	payload := corrupt(enc, len(enc)-1)

	appLen := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(appLen[36:], 0)

	chunkShape := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(chunkShape[tracefile.HeaderSize+16:], 1) // first chunk claims 1 record

	cases := map[string][]byte{
		"bad magic":      corrupt(enc, 0),
		"version skew":   version,
		"unknown flags":  flags,
		"bad scenario":   scenario,
		"header crc":     headerCRC,
		"payload crc":    payload,
		"zero app len":   appLen,
		"chunk shape":    chunkShape,
		"truncated head": enc[:tracefile.HeaderSize-10],
		"truncated body": enc[:len(enc)-7],
		"trailing bytes": append(append([]byte(nil), enc...), 0xee),
		"empty":          nil,
	}
	for name, data := range cases {
		if _, _, err := tracefile.ReadBuffer(bytes.NewReader(data)); !errors.Is(err, tracefile.ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}

	// The undamaged original still reads.
	if _, _, err := tracefile.ReadBuffer(bytes.NewReader(enc)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
}

// TestSniff pins the magic check NewReader applies first: only the
// full "SIPTRC\r\n" magic classifies as a trace file.
func TestSniff(t *testing.T) {
	meta := tracefile.Meta{App: "mcf", Scenario: vm.ScenarioNormal, Seed: 1}
	enc, err := tracefile.Encode(meta, materialize(t, meta.App, meta.Scenario, meta.Seed, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !tracefile.Sniff(enc) {
		t.Fatal("Sniff rejects a valid file")
	}
	for _, b := range [][]byte{nil, enc[:4], []byte("SIPT\x01__________"), []byte("SIPTRC\n\r________")} {
		if tracefile.Sniff(b) {
			t.Fatalf("Sniff accepts %q", b)
		}
	}
}

// TestMetaValidation asserts unencodable metadata is rejected at write
// time, not discovered at read time.
func TestMetaValidation(t *testing.T) {
	buf := materialize(t, "gcc", vm.ScenarioNormal, 1, 100)
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	for name, meta := range map[string]tracefile.Meta{
		"empty app":    {App: "", Scenario: vm.ScenarioNormal},
		"long app":     {App: string(long), Scenario: vm.ScenarioNormal},
		"bad scenario": {App: "gcc", Scenario: vm.Scenario(99)},
	} {
		if _, err := tracefile.Encode(meta, buf); !errors.Is(err, tracefile.ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}
}
