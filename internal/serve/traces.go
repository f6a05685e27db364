// Trace ingestion: the daemon accepts externally produced trace files
// (the internal/tracefile format) and replays them on demand.
//
//	POST /v1/traces           upload one .sipt file -> 201 (or 200 if
//	                          already stored) {digest, app, ...}
//	GET  /v1/traces           list ingested traces, digest-sorted
//	GET  /v1/traces/{digest}  one trace's metadata
//	POST /v1/run              {"trace": "<digest>", ...} replays an
//	                          ingested trace instead of a named app
//
// Uploads are content-addressed: the digest is the SHA-256 of the file
// bytes, so re-uploading is idempotent and a digest can be computed
// client-side (sha256sum) before submission. Traces live in their own
// store.Store (Config.TraceStore) with its own byte budget; the least
// recently replayed traces are evicted first when the budget fills.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"sipt/internal/replay"
	"sipt/internal/report"
	"sipt/internal/store"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
)

// TraceInfo is the JSON view of one ingested trace.
type TraceInfo struct {
	Digest   string `json:"digest"`
	App      string `json:"app"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Records  uint64 `json:"records"`
	Bytes    int64  `json:"bytes"`
}

// traceIndex is the in-memory metadata listing over the trace store:
// digest -> TraceInfo, plus a sorted digest slice so listings never
// range a map (deterministic order, always). The store remains the
// source of truth for existence — list filters through Store.Has, so
// an eviction is reflected immediately without index bookkeeping.
type traceIndex struct {
	mu       sync.Mutex
	byDigest map[string]TraceInfo
	digests  []string // sorted ascending
}

// newTraceIndex scans the trace store and rebuilds the listing. Blobs
// that are not valid trace files (or fail the store's checksum) are
// skipped — the store polices its own integrity. Keys are read in LRU
// order so the scan's recency refreshes re-form the exact order the
// previous process left behind.
func newTraceIndex(s *store.Store) *traceIndex {
	ix := &traceIndex{byDigest: make(map[string]TraceInfo)}
	if s == nil {
		return ix
	}
	for _, k := range s.KeysLRU() {
		blob, err := s.Get(k)
		if err != nil {
			continue
		}
		meta, err := tracefile.ReadMeta(bytes.NewReader(blob))
		if err != nil {
			continue
		}
		ix.add(TraceInfo{Digest: k.String(), App: meta.App, Scenario: meta.Scenario.String(),
			Seed: meta.Seed, Records: meta.Records, Bytes: int64(len(blob))})
	}
	return ix
}

func (ix *traceIndex) add(info TraceInfo) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.byDigest[info.Digest]; !ok {
		i := sort.SearchStrings(ix.digests, info.Digest)
		ix.digests = append(ix.digests, "")
		copy(ix.digests[i+1:], ix.digests[i:])
		ix.digests[i] = info.Digest
	}
	ix.byDigest[info.Digest] = info
}

func (ix *traceIndex) get(digest string) (TraceInfo, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	info, ok := ix.byDigest[digest]
	return info, ok
}

// list returns the metadata of every trace still alive in the store,
// digest-sorted. alive filters out entries the store has since evicted.
func (ix *traceIndex) list(alive func(store.Key) bool) []TraceInfo {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := []TraceInfo{}
	for _, d := range ix.digests {
		k, err := store.ParseKey(d)
		if err != nil || !alive(k) {
			continue
		}
		out = append(out, ix.byDigest[d])
	}
	return out
}

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.traceStore == nil {
		writeError(w, http.StatusServiceUnavailable, "trace ingestion disabled (start siptd with -store-dir)")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"trace exceeds the %d-byte upload cap", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// Full validation before a byte hits disk: header, every chunk CRC,
	// record count. A digest is only ever handed out for a replayable
	// trace.
	meta, _, err := tracefile.ReadBuffer(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "not a valid trace file: %v", err)
		return
	}
	if meta.Records == 0 {
		writeError(w, http.StatusBadRequest, "empty trace")
		return
	}
	digest := store.KeyOfBytes(body)
	created := !s.traceStore.Contains(digest)
	if created {
		if err := s.traceStore.Put(digest, body); err != nil {
			if errors.Is(err, store.ErrTooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
				return
			}
			writeError(w, http.StatusInternalServerError, "storing trace: %v", err)
			return
		}
		s.tracesIngested.Inc()
	}
	info := TraceInfo{Digest: digest.String(), App: meta.App, Scenario: meta.Scenario.String(),
		Seed: meta.Seed, Records: meta.Records, Bytes: int64(len(body))}
	s.traces.add(info)
	code := http.StatusCreated
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	if s.traceStore == nil {
		writeError(w, http.StatusServiceUnavailable, "trace ingestion disabled (start siptd with -store-dir)")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []TraceInfo `json:"traces"`
	}{s.traces.list(s.traceStore.Has)})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traceStore == nil {
		writeError(w, http.StatusServiceUnavailable, "trace ingestion disabled (start siptd with -store-dir)")
		return
	}
	digest := r.PathValue("digest")
	k, err := store.ParseKey(digest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad digest: %v", err)
		return
	}
	info, ok := s.traces.get(digest)
	if !ok || !s.traceStore.Has(k) {
		writeError(w, http.StatusNotFound, "no such trace %q", digest)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// buildTraceRun validates a replay-an-ingested-trace RunRequest and
// returns its job closure. The trace's embedded metadata supplies the
// workload identity and scenario, so the request must not name them.
// The job fetches and decodes the blob only when the run simulates.
func (s *Server) buildTraceRun(req RunRequest) (runFunc, error) {
	if s.traceStore == nil {
		return nil, errors.New("trace replay disabled (start siptd with -store-dir)")
	}
	if req.App != "" {
		return nil, errors.New("app and trace are mutually exclusive")
	}
	if req.Scenario != "" {
		return nil, errors.New("scenario is embedded in the trace file")
	}
	if req.Records != 0 {
		return nil, errors.New("records is determined by the trace file")
	}
	key, err := store.ParseKey(req.Trace)
	if err != nil {
		return nil, fmt.Errorf("bad trace digest: %v", err)
	}
	cfg, _, label, err := runConfig(req)
	if err != nil {
		return nil, err
	}
	view := s.jobRunner(0, req.Seed, nil)
	return func(ctx context.Context, id string) (jobResult, error) {
		// Existence is checked inside the job, not at admission: a trace
		// evicted between submit and run fails that one job cleanly. The
		// blob itself is fetched only if the run has to simulate — the
		// memo and the result store are probed first, with the trace's
		// identity taken from the index.
		if !s.traceStore.Contains(key) {
			return jobResult{}, errNoTrace(key)
		}
		meta, err := s.traceMeta(key)
		if err != nil {
			return jobResult{}, err
		}
		cfg := cfg
		cfg.NoContig = meta.Scenario == vm.ScenarioNoContig
		load := func() (*replay.Buffer, error) { return s.loadTrace(key, meta) }
		st, err := view(ctx, id).RunTrace(key.String(), meta.App, load, cfg)
		if err != nil {
			return jobResult{}, err
		}
		note := fmt.Sprintf("trace %.12s (%s/%s, %d records) on %s",
			req.Trace, meta.App, meta.Scenario, meta.Records, label)
		return jobResult{tables: []*report.Table{summaryTable(st, note)}}, nil
	}, nil
}

// errNoTrace fails a run whose trace is not, or no longer, resident.
func errNoTrace(key store.Key) error {
	return fmt.Errorf("no such trace %.12s (upload it via POST /v1/traces)", key)
}

// traceMeta returns a resident trace's identity. Upload and the
// startup scan index every trace they accept, so this is normally a
// map lookup; a blob the index has never seen falls back to reading
// its header.
func (s *Server) traceMeta(key store.Key) (tracefile.Meta, error) {
	if info, ok := s.traces.get(key.String()); ok {
		if sc, err := vm.ParseScenario(info.Scenario); err == nil {
			return tracefile.Meta{App: info.App, Scenario: sc, Seed: info.Seed, Records: info.Records}, nil
		}
	}
	blob, err := s.traceStore.Get(key)
	if err != nil {
		return tracefile.Meta{}, errNoTrace(key)
	}
	meta, err := tracefile.ReadMeta(bytes.NewReader(blob))
	if err != nil {
		return tracefile.Meta{}, fmt.Errorf("stored trace %.12s unreadable: %v", key, err)
	}
	return meta, nil
}

// loadTrace fetches and fully decodes a trace for a run that must
// simulate, cross-checking the decoded header against the identity the
// run was keyed under.
func (s *Server) loadTrace(key store.Key, want tracefile.Meta) (*replay.Buffer, error) {
	blob, err := s.traceStore.Get(key)
	if err != nil {
		return nil, errNoTrace(key)
	}
	meta, buf, err := tracefile.ReadBuffer(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("stored trace %.12s unreadable: %v", key, err)
	}
	if meta != want {
		return nil, fmt.Errorf("stored trace %.12s is %+v, indexed as %+v", key, meta, want)
	}
	return buf, nil
}
