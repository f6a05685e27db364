// Package journal is siptd's write-ahead log of job lifecycle: an
// append-only, CRC32C-framed record stream that makes serving
// restart-survivable. The durability split follows the store's
// content-addressed design (DESIGN.md §13): results live in
// internal/store under digest keys, so the journal records only *which*
// work was admitted and *which* digests settled — admission, start,
// per-lane checkpoint, finish, cancel — and a replay after a crash
// rebuilds the job table, serving finished jobs from the store and
// re-running only the lanes with no checkpoint. SIPT's own discipline
// (mis-speculation is repaired, never tolerated) is the model:
// in-flight state is cheap to reconstruct exactly because committed
// state is durably anchored.
//
// On-disk format. A journal directory holds numbered segment files
// (00000001.wal, 00000002.wal, ...), each an 8-byte header — magic
// "SJNL", a version byte, three reserved — followed by frames:
//
//	[u32 payload len][u32 CRC32C(payload)][payload JSON Record]
//
// Appends go to the highest-numbered segment. Records that gate an
// acknowledgement (admitted before the 202, canceled before the DELETE
// is acknowledged) are fsynced. finished is fsynced too but gates
// nothing: siptd settles a job — its view already shows the terminal
// status — before it appends finished, and a crash in between replays
// the job as interrupted, so it resumes under its original ID and
// recomputes byte-identically from its lane checkpoints. Progress
// records (started, lane) are not fsynced — losing one re-runs work,
// never corrupts it. A torn tail — crash mid-write — fails the CRC or length
// check and is truncated at the next Open, not fatal. A segment whose
// header names a different magic or version is fatal with an error
// naming the path: operators must not silently lose a journal they
// thought they had.
//
// Compaction. When the active segment outgrows its byte budget, Append
// rotates: a fresh segment is written with a watermark record (the
// highest job serial ever allocated, so job IDs stay dense across
// compaction) and a re-admission snapshot of every unsettled job, then
// the older segments are deleted. Settled jobs are dropped — their
// results are already content-addressed in the store; the journal's
// job is recovery, not history.
//
// Fault points journal.append.torn (half a frame is written, then the
// append fails) and journal.fsync.err (Sync reports an injected error)
// let the chaos suite rehearse both crash shapes deterministically.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sipt/internal/fault"
)

// Segment header: magic, version, reserved padding to 8 bytes.
const (
	segMagic      = "SJNL"
	segVersion    = 1
	segHeaderSize = 8
	segSuffix     = ".wal"

	frameHeaderSize = 8
	// maxFrameBytes bounds one record's payload: far beyond any real
	// lifecycle record, small enough that a corrupt length field never
	// drives a huge allocation during replay.
	maxFrameBytes = 8 << 20
)

// DefaultSegmentBytes bounds the active segment when Open is given a
// non-positive budget; rotation (and with it compaction) triggers when
// the segment outgrows the bound.
const DefaultSegmentBytes = 4 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrIncompatible reports a journal directory written by a different
// format version (or not a journal at all). Open fails rather than
// guess; the wrapped message names the offending segment path.
var ErrIncompatible = errors.New("incompatible journal")

// errClosed reports use after Close.
var errClosed = errors.New("journal: closed")

// Fault points for the chaos suite (see internal/fault): torn simulates
// a crash mid-append (half the frame reaches the file, the append
// fails), fsyncErr makes the next durability barrier report failure.
var (
	tornPoint  = fault.NewPoint("journal.append.torn")
	fsyncPoint = fault.NewPoint("journal.fsync.err")
)

// Record types, in lifecycle order. Watermark is internal bookkeeping
// emitted by compaction, never by callers.
const (
	TypeAdmitted  = "admitted"  // job accepted: ID, Seq, Kind, Request (fsync)
	TypeStarted   = "started"   // job left the queue for a worker
	TypeLane      = "lane"      // one sweep lane settled: Digest names its store blob
	TypeFinished  = "finished"  // job settled: Status, Digest, Error (fsync)
	TypeCanceled  = "canceled"  // cancellation requested (fsync): replay must not resurrect
	TypeWatermark = "watermark" // compaction: Seq floors the ID allocator
)

// A Record is one journal frame's payload. Fields are omitted when
// empty so progress records stay a few dozen bytes.
type Record struct {
	Type    string          `json:"t"`
	ID      string          `json:"id,omitempty"`
	Seq     uint64          `json:"seq,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Request json.RawMessage `json:"req,omitempty"`
	Digest  string          `json:"digest,omitempty"`
	Status  string          `json:"status,omitempty"`
	Error   string          `json:"err,omitempty"`
}

// JobState is one job's recovered lifecycle, folded from its records.
type JobState struct {
	ID       string
	Seq      uint64
	Kind     string
	Request  json.RawMessage
	Started  bool
	Canceled bool
	Lanes    []string // digests of checkpointed sweep lanes, in settle order
	Status   string   // empty while in flight; terminal status once finished
	Digest   string   // finished jobs: store digest of the result blob
	Error    string
}

// Settled reports whether the job reached a terminal state (including
// a cancellation that never got its finish record — replay must not
// resurrect work the operator killed).
func (s *JobState) Settled() bool { return s.Status != "" }

// clone copies the state so callers cannot alias journal internals.
func (s *JobState) clone() JobState {
	c := *s
	c.Lanes = append([]string(nil), s.Lanes...)
	return c
}

// state is the in-memory fold of the record stream: one JobState per
// job, in admission order (detrand: iteration walks the slice, never
// the map).
type state struct {
	jobs   map[string]*JobState
	order  []string
	maxSeq uint64
}

func newState() *state {
	return &state{jobs: make(map[string]*JobState)}
}

// apply folds one record into the state. Records for unknown IDs are
// ignored (their admission was dropped by compaction or lost with a
// torn tail); a duplicate admitted record resets the job — that is how
// a compaction snapshot re-asserts authority over older segments that
// a mid-rotation crash left behind.
func (st *state) apply(rec Record) {
	if rec.Seq > st.maxSeq {
		st.maxSeq = rec.Seq
	}
	switch rec.Type {
	case TypeAdmitted:
		if js, ok := st.jobs[rec.ID]; ok {
			*js = JobState{ID: rec.ID, Seq: rec.Seq, Kind: rec.Kind, Request: rec.Request}
			return
		}
		st.jobs[rec.ID] = &JobState{ID: rec.ID, Seq: rec.Seq, Kind: rec.Kind, Request: rec.Request}
		st.order = append(st.order, rec.ID)
	case TypeStarted:
		if js, ok := st.jobs[rec.ID]; ok {
			js.Started = true
		}
	case TypeLane:
		js, ok := st.jobs[rec.ID]
		if !ok || rec.Digest == "" {
			return
		}
		for _, d := range js.Lanes {
			if d == rec.Digest {
				return
			}
		}
		js.Lanes = append(js.Lanes, rec.Digest)
	case TypeCanceled:
		if js, ok := st.jobs[rec.ID]; ok {
			js.Canceled = true
			if js.Status == "" {
				js.Status = "canceled"
			}
		}
	case TypeFinished:
		if js, ok := st.jobs[rec.ID]; ok {
			js.Status = rec.Status
			js.Digest = rec.Digest
			js.Error = rec.Error
		}
	case TypeWatermark:
		// Seq already folded above.
	}
}

// snapshot returns the jobs in admission order.
func (st *state) snapshot() []JobState {
	out := make([]JobState, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id].clone())
	}
	return out
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	Appends     uint64 // records appended this process
	Syncs       uint64 // durability barriers that reached fsync
	Rotations   uint64 // segment rotations (each one a compaction)
	Truncations uint64 // torn tails cut off at Open
	Torn        uint64 // injected torn appends (journal.append.torn)
	Replayed    uint64 // records decoded from disk at Open
	Dropped     uint64 // settled jobs dropped by compaction
	Segments    int    // resident segment files
	ActiveBytes int64  // bytes in the active segment
	LiveJobs    int    // unsettled jobs in the fold
	SettledJobs int    // settled jobs still resident (pre-compaction)
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use; appends serialise on one mutex — the record stream
// is tiny next to the simulations it describes.
type Journal struct {
	dir          string
	segmentBytes int64

	mu        sync.Mutex
	f         *os.File // active segment, opened for append
	activeIdx int
	activeLen int64
	segments  int
	tornAt    int64 // ≥0: bytes of valid prefix before an injected torn write
	closed    bool
	st        *state
	stats     Stats
}

// Open replays the journal at dir (creating it if absent) and opens it
// for appending. Torn tails are truncated and counted; a segment from
// an incompatible format version fails with an error wrapping
// ErrIncompatible and naming the path. The recovered jobs are available
// from Jobs.
func Open(dir string, segmentBytes int64) (*Journal, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:          dir,
		segmentBytes: segmentBytes,
		tornAt:       -1,
		st:           newState(),
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		valid, applied, err := parseSegment(raw, j.st)
		if err != nil {
			return nil, fmt.Errorf("journal: %s: %w", seg.path, err)
		}
		j.stats.Replayed += applied
		if valid != int64(len(raw)) {
			// Torn tail (or torn header): cut the segment back to its
			// last whole record so appends resume on a clean boundary.
			if valid < segHeaderSize {
				if err := os.WriteFile(seg.path, segHeader(), 0o644); err != nil {
					return nil, fmt.Errorf("journal: %w", err)
				}
				valid = segHeaderSize
			} else if err := os.Truncate(seg.path, valid); err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			j.stats.Truncations++
		}
		j.activeIdx = seg.idx
		j.activeLen = valid
	}
	j.segments = len(segs)
	if len(segs) == 0 {
		j.activeIdx = 1
		j.activeLen = 0
		j.segments = 1
	}
	f, err := os.OpenFile(j.segPath(j.activeIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	if j.activeLen < segHeaderSize {
		if _, err := f.Write(segHeader()); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.activeLen = segHeaderSize
	}
	syncDir(dir)
	return j, nil
}

// Replay reads the journal at dir without opening it for writes or
// truncating anything: the recovered jobs in admission order plus the
// ID watermark. It is how tests and tooling inspect a dead daemon's
// journal.
func Replay(dir string) ([]JobState, uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	st := newState()
	for _, seg := range segs {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		if _, _, err := parseSegment(raw, st); err != nil {
			return nil, 0, fmt.Errorf("journal: %s: %w", seg.path, err)
		}
	}
	return st.snapshot(), st.maxSeq, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Jobs returns the recovered-plus-live job states in admission order.
func (j *Journal) Jobs() []JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.snapshot()
}

// MaxSeq returns the highest job serial the journal has seen — the
// floor for the next allocation, kept monotonic across compactions by
// watermark records.
func (j *Journal) MaxSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.maxSeq
}

// Append writes one record, optionally through a durability barrier
// (fsync), and folds it into the live state. Records that gate an
// acknowledgement to a client must pass sync=true. When the active
// segment outgrows its budget the append also rotates and compacts.
func (j *Journal) Append(rec Record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if err := j.repairTornLocked(); err != nil {
		return err
	}
	if tornPoint.Fire() {
		// Simulate a crash mid-write: half the frame reaches the file,
		// the caller sees failure. The valid prefix is remembered so a
		// surviving process repairs before its next append; a killed
		// process leaves the torn tail for Open to truncate.
		j.stats.Torn++
		j.tornAt = j.activeLen
		if _, werr := j.f.Write(frame[:len(frame)/2]); werr == nil {
			j.f.Sync()
		}
		return fault.Transient(fmt.Errorf("journal: injected torn append at %s", rec.Type))
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.activeLen += int64(len(frame))
	j.stats.Appends++
	j.st.apply(rec)
	if sync {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if j.activeLen > j.segmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// repairTornLocked cuts the segment back to its valid prefix after an
// injected torn append, so a process that survives the failed append
// does not bury later records behind an unreadable frame.
func (j *Journal) repairTornLocked() error {
	if j.tornAt < 0 {
		return nil
	}
	if err := os.Truncate(j.segPath(j.activeIdx), j.tornAt); err != nil {
		return fmt.Errorf("journal: repairing torn segment: %w", err)
	}
	j.activeLen = j.tornAt
	j.tornAt = -1
	return nil
}

// syncLocked is the durability barrier, with its injectable failure.
func (j *Journal) syncLocked() error {
	if err := fsyncPoint.Err(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.stats.Syncs++
	return nil
}

// rotateLocked is compaction: a fresh segment gets a watermark record
// (keeping the ID allocator monotonic) and a re-admission snapshot of
// every unsettled job, settled jobs are dropped from memory, and the
// older segments are deleted. A crash between the new segment's fsync
// and the deletions is benign — replay reads old segments first, then
// the snapshot's admitted records reset each job authoritatively.
func (j *Journal) rotateLocked() error {
	buf := segHeader()
	wm, err := encodeFrame(Record{Type: TypeWatermark, Seq: j.st.maxSeq})
	if err != nil {
		return err
	}
	buf = append(buf, wm...)
	live := j.st.order[:0:0]
	var dropped uint64
	for _, id := range j.st.order {
		js := j.st.jobs[id]
		if js.Settled() {
			delete(j.st.jobs, id)
			dropped++
			continue
		}
		live = append(live, id)
		for _, rec := range snapshotRecords(js) {
			frame, err := encodeFrame(rec)
			if err != nil {
				return err
			}
			buf = append(buf, frame...)
		}
	}

	idx := j.activeIdx + 1
	path := j.segPath(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotating: %w", err)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("journal: rotating: %w", err)
	}
	// The snapshot is durable; swap it in and retire the old segments.
	old := j.f
	oldIdx := j.activeIdx
	j.f = f
	j.activeIdx = idx
	j.activeLen = int64(len(buf))
	j.st.order = live
	old.Close()
	for i := 1; i <= oldIdx; i++ {
		os.Remove(j.segPath(i))
	}
	syncDir(j.dir)
	j.segments = 1
	j.stats.Rotations++
	j.stats.Dropped += dropped
	return nil
}

// snapshotRecords re-emits one live job's lifecycle for a compaction
// snapshot.
func snapshotRecords(js *JobState) []Record {
	recs := []Record{{Type: TypeAdmitted, ID: js.ID, Seq: js.Seq, Kind: js.Kind, Request: js.Request}}
	if js.Started {
		recs = append(recs, Record{Type: TypeStarted, ID: js.ID})
	}
	for _, d := range js.Lanes {
		recs = append(recs, Record{Type: TypeLane, ID: js.ID, Digest: d})
	}
	return recs
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Segments = j.segments
	st.ActiveBytes = j.activeLen
	for _, id := range j.st.order {
		if j.st.jobs[id].Settled() {
			st.SettledJobs++
		} else {
			st.LiveJobs++
		}
	}
	return st
}

// Close syncs and closes the active segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// segPath names segment idx in dir.
func (j *Journal) segPath(idx int) string { return segPath(j.dir, idx) }

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", idx, segSuffix))
}

// segHeader returns a fresh segment header.
func segHeader() []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	h[4] = segVersion
	return h
}

// segInfo is one discovered segment file.
type segInfo struct {
	idx  int
	path string
}

// listSegments finds dir's segment files in index order. Foreign files
// are left alone; an absent directory is an empty journal.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segInfo
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, segSuffix) || len(name) != 8+len(segSuffix) {
			continue
		}
		idx, err := strconv.Atoi(name[:8])
		if err != nil || idx <= 0 {
			continue
		}
		segs = append(segs, segInfo{idx: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].idx < segs[k].idx })
	return segs, nil
}

// parseSegment folds one segment's decodable prefix into st, returning
// the byte length of that prefix and the number of records applied. A
// header from a different format is the one fatal case; everything
// else — short header, bad length, failed CRC, undecodable payload —
// just ends the prefix, because it is indistinguishable from a torn
// write.
func parseSegment(raw []byte, st *state) (valid int64, applied uint64, err error) {
	if len(raw) < segHeaderSize {
		return 0, 0, nil
	}
	if string(raw[:4]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad segment magic", ErrIncompatible)
	}
	if raw[4] != segVersion {
		return 0, 0, fmt.Errorf("%w: segment version %d (this build reads %d)",
			ErrIncompatible, raw[4], segVersion)
	}
	off := int64(segHeaderSize)
	for {
		if int64(len(raw))-off < frameHeaderSize {
			return off, applied, nil
		}
		n := int64(binary.LittleEndian.Uint32(raw[off:]))
		if n == 0 || n > maxFrameBytes || off+frameHeaderSize+n > int64(len(raw)) {
			return off, applied, nil
		}
		payload := raw[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(raw[off+4:]) {
			return off, applied, nil
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return off, applied, nil
		}
		st.apply(rec)
		applied++
		off += frameHeaderSize + n
	}
}

// encodeFrame wraps one record in the length+CRC frame.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(payload) > maxFrameBytes {
		return nil, fmt.Errorf("journal: record for %s exceeds the %d-byte frame bound", rec.ID, maxFrameBytes)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// syncDir fsyncs dir so segment creations and deletions survive power
// loss. Failure is non-fatal: at worst a crash forgets a rotation, and
// replay handles overlapping segments by design.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
