package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/exp"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// encodeTestTrace materialises a small trace and encodes it as a
// tracefile blob, returning the bytes and their content digest.
func encodeTestTrace(t testing.TB, app string, seed int64, records uint64) ([]byte, string) {
	t.Helper()
	prof, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tracefile.Encode(tracefile.Meta{App: app, Scenario: vm.ScenarioNormal, Seed: seed}, buf)
	if err != nil {
		t.Fatal(err)
	}
	return enc, store.KeyOfBytes(enc).String()
}

func openTraceStore(t testing.TB, budget int64) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postRaw(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func TestTraceIngestAndReplay(t *testing.T) {
	ts := openTraceStore(t, 1<<30)
	_, srv := testServer(t, Config{TraceStore: ts})
	enc, digest := encodeTestTrace(t, "libquantum", 7, 3_000)

	// Upload: 201 with full metadata.
	resp, body := postRaw(t, srv.URL+"/v1/traces", enc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body %s", resp.StatusCode, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest || info.App != "libquantum" || info.Records != 3_000 ||
		info.Scenario != "normal" || info.Seed != 7 || info.Bytes != int64(len(enc)) {
		t.Fatalf("upload info = %+v", info)
	}

	// Re-upload is idempotent: 200, same metadata.
	resp, body = postRaw(t, srv.URL+"/v1/traces", enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload status = %d, body %s", resp.StatusCode, body)
	}

	// Listed, and fetchable by digest.
	lresp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0].Digest != digest {
		t.Fatalf("listing = %+v", listing)
	}
	gresp, err := http.Get(srv.URL + "/v1/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{digest} = %d", gresp.StatusCode)
	}

	// Replay by digest and compare against a direct harness run over the
	// identical buffer: the API path must be bit-for-bit the same
	// simulation.
	resp, body = postJSON(t, srv.URL+"/v1/run", `{"trace":"`+digest+`","l1":"32K2w","mode":"combined"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, srv.URL, sub.ID, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("trace run = %+v, want done", v)
	}

	_, buf, err := tracefile.ReadBuffer(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	load := func() (*replay.Buffer, error) { return buf, nil }
	want, err := exp.NewRunner(exp.Options{Seed: 1, Workers: 1}).RunTrace(digest, "libquantum", load, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := summaryTable(want, v.Tables[0].Note)
	if len(v.Tables) != 1 {
		t.Fatalf("tables = %+v", v.Tables)
	}
	var got, exp2 strings.Builder
	if err := v.Tables[0].Render(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.Render(&exp2); err != nil {
		t.Fatal(err)
	}
	if got.String() != exp2.String() {
		t.Fatalf("trace replay drifted from direct run:\n%s\nvs\n%s", got.String(), exp2.String())
	}
}

func TestTraceUploadRejectsGarbage(t *testing.T) {
	_, srv := testServer(t, Config{TraceStore: openTraceStore(t, 1<<30)})

	resp, body := postRaw(t, srv.URL+"/v1/traces", []byte("not a trace at all"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload = %d, body %s", resp.StatusCode, body)
	}

	// A valid file with one flipped payload byte must be rejected too —
	// the CRCs gate ingestion, not just the magic.
	enc, _ := encodeTestTrace(t, "mcf", 3, 1_000)
	enc[len(enc)-1] ^= 0xff
	resp, body = postRaw(t, srv.URL+"/v1/traces", enc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload = %d, body %s", resp.StatusCode, body)
	}
}

func TestTraceUploadSizeCap(t *testing.T) {
	_, srv := testServer(t, Config{TraceStore: openTraceStore(t, 1<<30), MaxTraceBytes: 4096})
	enc, _ := encodeTestTrace(t, "mcf", 3, 2_000) // ~32 KiB, over the cap
	resp, body := postRaw(t, srv.URL+"/v1/traces", enc)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, body %s", resp.StatusCode, body)
	}
	// The JSON endpoints keep their own (default 1 MiB) cap: a small run
	// request still works on the same server.
	resp, body = postJSON(t, srv.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run after capped upload = %d, body %s", resp.StatusCode, body)
	}
}

func TestTraceEndpointsWithoutStore(t *testing.T) {
	_, srv := testServer(t, Config{})
	enc, digest := encodeTestTrace(t, "mcf", 3, 1_000)
	resp, _ := postRaw(t, srv.URL+"/v1/traces", enc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload without store = %d", resp.StatusCode)
	}
	lresp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("list without store = %d", lresp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/run", `{"trace":"`+digest+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace run without store = %d, body %s", resp.StatusCode, body)
	}
}

func TestTraceRunValidation(t *testing.T) {
	ts := openTraceStore(t, 1<<30)
	_, srv := testServer(t, Config{TraceStore: ts})
	enc, digest := encodeTestTrace(t, "mcf", 3, 1_000)
	if resp, body := postRaw(t, srv.URL+"/v1/traces", enc); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d, body %s", resp.StatusCode, body)
	}
	cases := []struct {
		name, body string
	}{
		{"app and trace", `{"trace":"` + digest + `","app":"mcf"}`},
		{"scenario with trace", `{"trace":"` + digest + `","scenario":"fragmented"}`},
		{"records with trace", `{"trace":"` + digest + `","records":100}`},
		{"bad digest", `{"trace":"zzzz"}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/run", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", tc.name, resp.StatusCode, body)
		}
	}
	// An unknown (but well-formed) digest is admitted and fails at run
	// time — the trace might have been evicted after submission.
	ghost := store.KeyOf("no", "such", "trace").String()
	resp, body := postJSON(t, srv.URL+"/v1/run", `{"trace":"`+ghost+`"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ghost digest = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, srv.URL, sub.ID, 10*time.Second); v.Status != StatusFailed {
		t.Fatalf("ghost run = %+v, want failed", v)
	}
}

// TestTraceIndexSurvivesRestart rebuilds a server over a populated trace
// store: the listing must reappear without re-uploading.
func TestTraceIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	_, srv1 := testServer(t, Config{TraceStore: s1})
	enc, digest := encodeTestTrace(t, "libquantum", 7, 2_000)
	if resp, body := postRaw(t, srv1.URL+"/v1/traces", enc); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d, body %s", resp.StatusCode, body)
	}

	s2, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	_, srv2 := testServer(t, Config{TraceStore: s2})
	lresp, err := http.Get(srv2.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0].Digest != digest ||
		listing.Traces[0].App != "libquantum" || listing.Traces[0].Records != 2_000 {
		t.Fatalf("restarted listing = %+v", listing)
	}
}
