package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/exp"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/tracefile"
)

// traceGen is one server generation over a result-store and a
// trace-store directory that outlive it, so a test can restart the
// daemon by booting another generation over the same directories.
type traceGen struct {
	url    string
	runner *exp.Runner
	traces *store.Store
}

func bootTraceGen(t *testing.T, resultDir, traceDir string) traceGen {
	t.Helper()
	results, err := store.Open(resultDir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := store.Open(traceDir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64, Store: results})
	_, srv := testServer(t, Config{Runner: runner, TraceStore: traces})
	return traceGen{url: srv.URL, runner: runner, traces: traces}
}

// traceReads counts the trace store's blob reads: every Get is exactly
// one hit or one miss, while Contains and Has count neither.
func (g traceGen) traceReads() uint64 {
	st := g.traces.Stats()
	return st.Hits + st.Misses
}

// runJob submits a run request and waits for its job to finish.
func runJob(t *testing.T, base, body string) JobView {
	t.Helper()
	resp, b := postJSON(t, base+"/v1/run", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run %s = %d, body %s", body, resp.StatusCode, b)
	}
	var sub submitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	return waitJob(t, base, sub.ID, 30*time.Second)
}

func uploadTrace(t testing.TB, base string, enc []byte) {
	t.Helper()
	if resp, body := postRaw(t, base+"/v1/traces", enc); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d, body %s", resp.StatusCode, body)
	}
}

func mustDone(t *testing.T, v JobView) string {
	t.Helper()
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	return tablesJSON(t, v)
}

// TestTraceRunHitSkipsBlobRead: once a trace run's result is memoised
// or stored, repeating it — on the same server or on a restarted one
// over the same directories — answers without reading the trace blob
// and without simulating, and renders the identical table.
func TestTraceRunHitSkipsBlobRead(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	g1 := bootTraceGen(t, resultDir, traceDir)
	enc, digest := encodeTestTrace(t, "libquantum", 7, 3_000)
	uploadTrace(t, g1.url, enc)
	req := `{"trace":"` + digest + `","l1":"32K2w","mode":"combined"}`

	// The cold run reads the blob exactly once, to simulate it.
	reads := g1.traceReads()
	want := mustDone(t, runJob(t, g1.url, req))
	if got := g1.traceReads(); got != reads+1 {
		t.Fatalf("cold run made %d trace reads, want 1", got-reads)
	}
	if g1.runner.Simulations() != 1 {
		t.Fatalf("cold run: Simulations = %d, want 1", g1.runner.Simulations())
	}

	check := func(g traceGen, where string) {
		t.Helper()
		reads, sims := g.traceReads(), g.runner.Simulations()
		if got := mustDone(t, runJob(t, g.url, req)); got != want {
			t.Fatalf("%s: tables differ:\n%s\nvs\n%s", where, got, want)
		}
		if got := g.traceReads(); got != reads {
			t.Fatalf("%s: %d trace reads, want 0", where, got-reads)
		}
		if got := g.runner.Simulations(); got != sims {
			t.Fatalf("%s: %d simulations, want 0", where, got-sims)
		}
	}
	check(g1, "memo hit")
	// The restarted generation's startup scan reads every blob once to
	// rebuild the index; check measures from after that.
	check(bootTraceGen(t, resultDir, traceDir), "store hit after restart")
}

// TestTraceRunEvictedAfterMemo: a trace evicted after a memoised run
// still fails the repeat with the re-upload message, although the
// result itself is still in RAM.
func TestTraceRunEvictedAfterMemo(t *testing.T) {
	ts := openTraceStore(t, 1<<30)
	_, srv := testServer(t, Config{TraceStore: ts})
	enc, digest := encodeTestTrace(t, "mcf", 3, 1_000)
	uploadTrace(t, srv.URL, enc)
	req := `{"trace":"` + digest + `"}`
	mustDone(t, runJob(t, srv.URL, req))

	ts.Delete(store.KeyOfBytes(enc))
	v := runJob(t, srv.URL, req)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "no such trace") ||
		!strings.Contains(v.Error, "upload it") {
		t.Fatalf("run after eviction = %+v, want failed with the re-upload message", v)
	}
}

// TestTraceRunIndexMiss: a blob put straight into the trace store after
// the server started has no index entry; its identity comes from the
// blob's header, and the run matches a direct simulation.
func TestTraceRunIndexMiss(t *testing.T) {
	ts := openTraceStore(t, 1<<30)
	_, srv := testServer(t, Config{TraceStore: ts})
	enc, digest := encodeTestTrace(t, "mcf", 3, 1_000)
	if err := ts.Put(store.KeyOfBytes(enc), enc); err != nil {
		t.Fatal(err)
	}
	v := runJob(t, srv.URL, `{"trace":"`+digest+`","l1":"32K2w","mode":"combined"}`)
	mustDone(t, v)

	meta, buf, err := tracefile.ReadBuffer(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	st, err := sim.RunTrace(context.Background(), meta.App, buf.Cursor(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var served, direct strings.Builder
	if err := v.Tables[0].Render(&served); err != nil {
		t.Fatal(err)
	}
	if err := summaryTable(st, v.Tables[0].Note).Render(&direct); err != nil {
		t.Fatal(err)
	}
	if served.String() != direct.String() {
		t.Fatalf("index-miss run drifted from direct sim.RunTrace:\n%s\nvs\n%s", served.String(), direct.String())
	}
}

// TestTraceRunCorruptBlob: results are keyed by the trace's content
// digest, so a memo or store hit answers without re-verifying the blob,
// even after it rots on disk. A config that has to simulate reads the
// blob, which the trace store then rejects and counts as corrupt.
func TestTraceRunCorruptBlob(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	g1 := bootTraceGen(t, resultDir, traceDir)
	enc, digest := encodeTestTrace(t, "libquantum", 7, 2_000)
	uploadTrace(t, g1.url, enc)
	req := `{"trace":"` + digest + `","l1":"32K2w","mode":"combined"}`
	want := mustDone(t, runJob(t, g1.url, req))
	// A second generation indexes the trace at startup, while the blob
	// is still intact; its memo is empty, so its repeat is a store hit.
	g2 := bootTraceGen(t, resultDir, traceDir)

	path := filepath.Join(traceDir, digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, g := range []traceGen{g1, g2} {
		if got := mustDone(t, runJob(t, g.url, req)); got != want {
			t.Fatalf("hit over a corrupt blob: tables differ:\n%s\nvs\n%s", got, want)
		}
	}
	v := runJob(t, g2.url, `{"trace":"`+digest+`","l1":"32K2w","mode":"vipt"}`)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "no such trace") {
		t.Fatalf("cold run over a corrupt blob = %+v, want failed", v)
	}
	if c := g2.traces.Stats().Corrupt; c != 1 {
		t.Fatalf("trace store Corrupt = %d, want 1", c)
	}
}

// BenchmarkTraceRunWarm measures one memoised trace run through an
// in-process server: HTTP admission, the scheduler hand-off, the memo
// hit and one read of the finished job. The 50k-record trace matches
// the size siptperf's serve-warm workload uploads.
func BenchmarkTraceRunWarm(b *testing.B) {
	s, srv := testServer(b, Config{TraceStore: openTraceStore(b, 1<<30)})
	enc, digest := encodeTestTrace(b, "libquantum", 7, 50_000)
	uploadTrace(b, srv.URL, enc)
	req := `{"trace":"` + digest + `","l1":"32K2w","mode":"combined"}`
	run := func() {
		resp, body := postJSON(b, srv.URL+"/v1/run", req)
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("run = %d, body %s", resp.StatusCode, body)
		}
		j, ok := s.jobs.get(sub.ID)
		if !ok {
			b.Fatalf("job %s not found", sub.ID)
		}
		<-j.Done()
		resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || v.Status != StatusDone {
			b.Fatalf("job = %+v, %v", v, err)
		}
	}
	run() // the one cold run: simulate and memoise
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
