// Package tracefile defines the versioned on-disk trace format: the
// bridge between the in-memory packed replay buffers of internal/replay
// and external tooling. A .sipt file is self-describing (app name,
// scenario, seed, record count travel in the header), integrity-checked
// (CRC32C over the header and over every payload chunk), and
// mmap-friendly (the fixed-size header, the padded app name, and every
// chunk header are 16-byte aligned, so each packed 16 B record sits at
// a deterministic, aligned offset computable from the header alone).
//
// Layout, all fields little-endian:
//
//	offset  size  field
//	0       8     magic "SIPTRC\r\n" (the \r\n catches ASCII-mode
//	              transfer mangling, the PNG trick)
//	8       2     format version (currently 1; readers reject others)
//	10      2     feature flags (must be zero in v1; readers reject
//	              unknown bits rather than misparse)
//	12      4     scenario (vm.Scenario enum value)
//	16      8     seed (int64, two's complement)
//	24      8     record count
//	32      4     records per chunk (last chunk holds the remainder)
//	36      4     app-name length in bytes (<= 255)
//	40      20    reserved, zero
//	60      4     CRC32C over header[0:60] plus the app-name bytes
//	64      -     app name, zero-padded to a 16-byte boundary
//	...     -     chunks
//
// Each chunk is a 16-byte header — record count (uint32), CRC32C of the
// payload (uint32), 8 reserved zero bytes — followed by count packed
// 16-byte records (replay.PackRecord's two little-endian words). Every
// chunk but the last holds exactly the header's records-per-chunk;
// the last holds the remainder. The reader enforces that shape, so the
// byte offset of any record follows from the header alone.
//
// The payload is the identical bit-packing the simulator replays from
// memory, so file-backed replay decodes through the same
// replay.UnpackRecord hot path and reproduces live generation
// bit-for-bit (the equality gate in tracefile_test.go).
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sipt/internal/replay"
	"sipt/internal/trace"
	"sipt/internal/vm"
)

// Format constants. DefaultChunkRecords (4096 records = 64 KiB payload)
// balances checksum granularity against per-chunk overhead (16 B header
// per chunk = 0.02% space).
const (
	FormatVersion       = 1
	HeaderSize          = 64
	ChunkHeaderSize     = 16
	DefaultChunkRecords = 4096

	// MagicLen is the length of the file magic; Sniff needs this many
	// leading bytes to classify a file.
	MagicLen = 8

	maxAppLen      = 255
	maxChunkRecs   = 1 << 20 // 16 MiB payload per chunk, ample
	recordSize     = replay.BytesPerRecord
	headerCRCStart = 60
)

var magic = [MagicLen]byte{'S', 'I', 'P', 'T', 'R', 'C', '\r', '\n'}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64 via the stdlib).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat tags every malformed-file error (bad magic, version skew,
// unknown flags, checksum mismatch, truncation, layout violations) so
// callers can distinguish "not/no longer a trace file" from I/O errors.
var ErrFormat = errors.New("tracefile: malformed trace file")

// Meta is the self-describing header payload: the identity of the
// record stream. For synthetic traces it is the exact tuple that keys
// the replay pool, so a file round-trips into the same pool slot it
// was generated from.
type Meta struct {
	App      string      `json:"app"`
	Scenario vm.Scenario `json:"-"`
	Seed     int64       `json:"seed"`
	Records  uint64      `json:"records"`
}

// Sniff reports whether b (at least the first MagicLen bytes of a
// stream) begins with the trace-file magic. Shorter slices report
// false.
func Sniff(b []byte) bool {
	return len(b) >= MagicLen && string(b[:MagicLen]) == string(magic[:])
}

// pad16 rounds n up to a 16-byte boundary.
func pad16(n int) int { return (n + 15) &^ 15 }

// marshalHeader builds the header plus padded app name for meta with
// the given record count. Close backpatches by rewriting this prefix:
// same app, same length, updated count and CRC.
func marshalHeader(meta Meta, records uint64, chunkRecs uint32) ([]byte, error) {
	if len(meta.App) == 0 || len(meta.App) > maxAppLen {
		return nil, fmt.Errorf("%w: app name length %d (want 1..%d)", ErrFormat, len(meta.App), maxAppLen)
	}
	if meta.Scenario < 0 || int(meta.Scenario) >= len(vm.Scenarios()) {
		return nil, fmt.Errorf("%w: unknown scenario %d", ErrFormat, meta.Scenario)
	}
	if chunkRecs == 0 || chunkRecs > maxChunkRecs {
		return nil, fmt.Errorf("%w: chunk size %d records (want 1..%d)", ErrFormat, chunkRecs, maxChunkRecs)
	}
	h := make([]byte, HeaderSize+pad16(len(meta.App)))
	copy(h, magic[:])
	binary.LittleEndian.PutUint16(h[8:], FormatVersion)
	binary.LittleEndian.PutUint16(h[10:], 0) // flags
	binary.LittleEndian.PutUint32(h[12:], uint32(meta.Scenario))
	binary.LittleEndian.PutUint64(h[16:], uint64(meta.Seed))
	binary.LittleEndian.PutUint64(h[24:], records)
	binary.LittleEndian.PutUint32(h[32:], chunkRecs)
	binary.LittleEndian.PutUint32(h[36:], uint32(len(meta.App)))
	copy(h[HeaderSize:], meta.App)
	crc := crc32.Checksum(h[:headerCRCStart], castagnoli)
	crc = crc32.Update(crc, castagnoli, []byte(meta.App))
	binary.LittleEndian.PutUint32(h[headerCRCStart:], crc)
	return h, nil
}

// marshalChunk appends one chunk (header + payload) for words (two per
// record) to dst and returns the extended slice.
func marshalChunk(dst []byte, words []uint64) []byte {
	payloadOff := len(dst) + ChunkHeaderSize
	var hdr [ChunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(words)/2))
	dst = append(dst, hdr[:]...)
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		dst = append(dst, b[:]...)
	}
	crc := crc32.Checksum(dst[payloadOff:], castagnoli)
	binary.LittleEndian.PutUint32(dst[payloadOff-ChunkHeaderSize+4:], crc)
	return dst
}

// A Writer streams records into the on-disk format. The record count is
// not known up front, so the destination must be seekable: Close
// rewrites the header with the final count. Use Encode when the trace
// is already materialised.
type Writer struct {
	dst       io.WriteSeeker
	meta      Meta
	chunkRecs uint32
	pend      []uint64 // packed words awaiting a full chunk
	n         uint64
	closed    bool
}

// NewWriter writes the provisional header (zero records) and returns a
// writer appending to dst. meta.Records is ignored; the count is
// whatever was appended by Close time.
func NewWriter(dst io.WriteSeeker, meta Meta) (*Writer, error) {
	h, err := marshalHeader(meta, 0, DefaultChunkRecords)
	if err != nil {
		return nil, err
	}
	if _, err := dst.Write(h); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return &Writer{dst: dst, meta: meta, chunkRecs: DefaultChunkRecords}, nil
}

// Append packs one record onto the stream, flushing a chunk whenever
// one fills. Records that exceed the packed encoding fail with an error
// wrapping replay.ErrUnpackable.
func (w *Writer) Append(rec *trace.Record) error {
	if w.closed {
		return errors.New("tracefile: append after Close")
	}
	w0, w1, err := replay.PackRecord(rec)
	if err != nil {
		return err
	}
	w.pend = append(w.pend, w0, w1)
	w.n++
	if uint64(len(w.pend)/2) >= uint64(w.chunkRecs) {
		return w.flushChunk()
	}
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() uint64 { return w.n }

func (w *Writer) flushChunk() error {
	if len(w.pend) == 0 {
		return nil
	}
	chunk := marshalChunk(make([]byte, 0, ChunkHeaderSize+len(w.pend)*8), w.pend)
	w.pend = w.pend[:0]
	if _, err := w.dst.Write(chunk); err != nil {
		return fmt.Errorf("tracefile: writing chunk: %w", err)
	}
	return nil
}

// Close flushes the final partial chunk and backpatches the header with
// the final record count. It does not close the underlying file; the
// caller owns that handle.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	h, err := marshalHeader(w.meta, w.n, w.chunkRecs)
	if err != nil {
		return err
	}
	if _, err := w.dst.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("tracefile: seeking to backpatch header: %w", err)
	}
	if _, err := w.dst.Write(h); err != nil {
		return fmt.Errorf("tracefile: backpatching header: %w", err)
	}
	if _, err := w.dst.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("tracefile: seeking past backpatched header: %w", err)
	}
	return nil
}

// Encode serialises a materialised buffer in one shot (no seeking
// needed: the count is known). The result is the byte-identical file a
// Writer fed the same records would produce. meta.Records is
// overwritten with the buffer's length.
func Encode(meta Meta, buf *replay.Buffer) ([]byte, error) {
	words := buf.Words()
	meta.Records = uint64(len(words) / 2)
	out, err := marshalHeader(meta, meta.Records, DefaultChunkRecords)
	if err != nil {
		return nil, err
	}
	const wordsPerChunk = 2 * DefaultChunkRecords
	for len(words) > 0 {
		n := len(words)
		if n > wordsPerChunk {
			n = wordsPerChunk
		}
		out = marshalChunk(out, words[:n])
		words = words[n:]
	}
	return out, nil
}

// A Reader streams records out of the on-disk format, verifying the
// header eagerly (at NewReader) and each chunk's CRC as it is loaded.
// It is a trace.Reader; decoding goes
// through the same replay.UnpackRecord as in-memory replay.
type Reader struct {
	src       io.Reader
	meta      Meta
	chunkRecs uint32
	remaining uint64                // records not yet loaded into a chunk
	chunk     []uint64              // decoded words of the current chunk
	pos       int                   // next word index within chunk
	scratch   []byte                // chunk read buffer, reused
	hdr       [ChunkHeaderSize]byte // chunk header read buffer, reused
}

// NewReader validates the header (magic, version, flags, scenario
// range, checksum) and positions the stream at the first chunk.
func NewReader(src io.Reader) (*Reader, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(src, h[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrFormat, err)
	}
	if !Sniff(h[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(h[8:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this reader speaks %d)", ErrFormat, v, FormatVersion)
	}
	if f := binary.LittleEndian.Uint16(h[10:]); f != 0 {
		return nil, fmt.Errorf("%w: unknown feature flags %#x", ErrFormat, f)
	}
	scenario := binary.LittleEndian.Uint32(h[12:])
	if int(scenario) >= len(vm.Scenarios()) {
		return nil, fmt.Errorf("%w: unknown scenario %d", ErrFormat, scenario)
	}
	appLen := binary.LittleEndian.Uint32(h[36:])
	if appLen == 0 || appLen > maxAppLen {
		return nil, fmt.Errorf("%w: app name length %d (want 1..%d)", ErrFormat, appLen, maxAppLen)
	}
	chunkRecs := binary.LittleEndian.Uint32(h[32:])
	if chunkRecs == 0 || chunkRecs > maxChunkRecs {
		return nil, fmt.Errorf("%w: chunk size %d records (want 1..%d)", ErrFormat, chunkRecs, maxChunkRecs)
	}
	pad := make([]byte, pad16(int(appLen)))
	if _, err := io.ReadFull(src, pad); err != nil {
		return nil, fmt.Errorf("%w: reading app name: %v", ErrFormat, err)
	}
	app := pad[:appLen]
	crc := crc32.Checksum(h[:headerCRCStart], castagnoli)
	crc = crc32.Update(crc, castagnoli, app)
	if got := binary.LittleEndian.Uint32(h[headerCRCStart:]); got != crc {
		return nil, fmt.Errorf("%w: header checksum %#x, computed %#x", ErrFormat, got, crc)
	}
	return &Reader{
		src:       src,
		chunkRecs: chunkRecs,
		remaining: binary.LittleEndian.Uint64(h[24:]),
		meta: Meta{
			App:      string(app),
			Scenario: vm.Scenario(scenario),
			Seed:     int64(binary.LittleEndian.Uint64(h[16:])),
			Records:  binary.LittleEndian.Uint64(h[24:]),
		},
	}, nil
}

// Meta returns the header's identity block.
func (r *Reader) Meta() Meta { return r.meta }

// loadChunk reads and verifies the next chunk. At the end of the last
// chunk it confirms the stream holds no trailing bytes and returns
// io.EOF.
func (r *Reader) loadChunk() error {
	if r.remaining == 0 {
		switch _, err := io.ReadFull(r.src, r.hdr[:1]); err {
		case nil:
			return fmt.Errorf("%w: trailing bytes after final chunk", ErrFormat)
		case io.EOF:
			return io.EOF
		default:
			return fmt.Errorf("%w: reading past final chunk: %v", ErrFormat, err)
		}
	}
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.src, hdr); err != nil {
		return fmt.Errorf("%w: truncated with %d records missing: %v", ErrFormat, r.remaining, err)
	}
	nrecs := binary.LittleEndian.Uint32(hdr[0:])
	want := uint64(r.chunkRecs)
	if r.remaining < want {
		want = r.remaining
	}
	if uint64(nrecs) != want {
		return fmt.Errorf("%w: chunk of %d records, layout requires %d", ErrFormat, nrecs, want)
	}
	payload := int(nrecs) * recordSize
	if cap(r.scratch) < payload {
		r.scratch = make([]byte, payload)
	}
	r.scratch = r.scratch[:payload]
	if _, err := io.ReadFull(r.src, r.scratch); err != nil {
		return fmt.Errorf("%w: truncated chunk payload: %v", ErrFormat, err)
	}
	if got, c := binary.LittleEndian.Uint32(hdr[4:]), crc32.Checksum(r.scratch, castagnoli); got != c {
		return fmt.Errorf("%w: chunk checksum %#x, computed %#x", ErrFormat, got, c)
	}
	nwords := int(nrecs) * 2
	if cap(r.chunk) < nwords {
		r.chunk = make([]uint64, nwords)
	}
	r.chunk = r.chunk[:nwords]
	for i := range r.chunk {
		r.chunk[i] = binary.LittleEndian.Uint64(r.scratch[i*8:])
	}
	r.pos = 0
	r.remaining -= uint64(nrecs)
	return nil
}

// NextInto implements trace.Reader.
func (r *Reader) NextInto(rec *trace.Record) error {
	if r.pos >= len(r.chunk) {
		if err := r.loadChunk(); err != nil {
			return err
		}
	}
	replay.UnpackRecord(r.chunk[r.pos], r.chunk[r.pos+1], rec)
	r.pos += 2
	return nil
}

// ReadMeta validates the header of a stream and returns its identity
// block without touching the body. Useful for listings.
func ReadMeta(src io.Reader) (Meta, error) {
	r, err := NewReader(src)
	if err != nil {
		return Meta{}, err
	}
	return r.meta, nil
}

// ReadBuffer decodes a whole stream into a replay buffer, verifying
// every chunk. When src reports its unread length (bytes.Reader and
// strings.Reader do), the words are allocated once, sized to the
// header's record count capped by what the remaining bytes can hold;
// otherwise they grow chunk by chunk. Either way the records' storage
// is bounded by the bytes actually present, so a forged count cannot
// force a huge allocation.
func ReadBuffer(src io.Reader) (Meta, *replay.Buffer, error) {
	r, err := NewReader(src)
	if err != nil {
		return Meta{}, nil, err
	}
	var words []uint64
	if l, ok := src.(interface{ Len() int }); ok {
		fit := uint64(l.Len()) / recordSize
		words = make([]uint64, 0, 2*min(r.meta.Records, fit))
	}
	for {
		if err := r.loadChunk(); err != nil {
			if err == io.EOF {
				break
			}
			return Meta{}, nil, err
		}
		words = append(words, r.chunk...)
	}
	if uint64(len(words)/2) != r.meta.Records {
		return Meta{}, nil, fmt.Errorf("%w: decoded %d records, header says %d",
			ErrFormat, len(words)/2, r.meta.Records)
	}
	buf, err := replay.BufferFromWords(words)
	if err != nil {
		return Meta{}, nil, err
	}
	return r.meta, buf, nil
}
