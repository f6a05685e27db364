package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sipt/internal/exp"
	"sipt/internal/replay"
	"sipt/internal/report"
)

// testServer builds a server over a small, fast runner. Tests use short
// traces so a run completes in tens of milliseconds.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64})
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJSON(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := buf.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// waitJob polls GET /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, base, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf","l1":"32K2w","mode":"combined"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID != "job-1" {
		t.Errorf("first job id = %q, want job-1", sub.ID)
	}
	v := waitJob(t, ts.URL, sub.ID, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	if len(v.Tables) != 1 || v.Tables[0].Title != "Run summary" {
		t.Fatalf("tables = %+v", v.Tables)
	}
	// The summary table must round-trip through the report codec.
	var b strings.Builder
	if err := report.RenderJSON(&b, v.Tables); err != nil {
		t.Fatal(err)
	}
	if _, err := report.ParseJSON(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	foundIPC := false
	for _, row := range v.Tables[0].Rows {
		if row[0] == "IPC" && row[1] != "" && row[1] != "0.0000" {
			foundIPC = true
		}
	}
	if !foundIPC {
		t.Errorf("no IPC row in %+v", v.Tables[0].Rows)
	}
}

func TestSweepEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	// fig5 over one app with a tiny trace: a real sweep, quickly.
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5","apps":["mcf"],"records":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, ts.URL, sub.ID, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	if len(v.Tables) == 0 {
		t.Fatal("sweep returned no tables")
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		`{"l1":"32K2w"}`,                 // missing app
		`{"app":"mcf","l1":"banana"}`,    // bad geometry
		`{"app":"mcf","l1":"32K32w"}`,    // more ways than a recency word holds
		`{"app":"mcf","l1":"32K3w"}`,     // set count not a power of two
		`{"app":"mcf","mode":"warp"}`,    // bad mode
		`{"app":"mcf","core":"quantum"}`, // bad core
		`{"app":"mcf","scenario":"x"}`,   // bad scenario
		`{"app":"mcf","bogus":1}`,        // unknown field
		`{not json`,
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/run", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", c, resp.StatusCode, body)
		}
	}
	// Unknown app is only detected inside the simulation; the job fails.
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"no-such-app"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ts.URL, sub.ID, 30*time.Second); v.Status != StatusFailed || v.Error == "" {
		t.Errorf("unknown-app job = %+v, want failed with error", v)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig99"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status = %d, body %s", resp.StatusCode, body)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestCancelStopsJobEarly(t *testing.T) {
	s, ts := testServer(t, Config{
		Runner:  exp.NewRunner(exp.Options{Records: 200_000_000, Seed: 1, CacheEntries: 64}),
		Workers: 1,
	})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Cancel while it runs; a 200M-record run would take minutes, so a
	// prompt terminal state proves cancellation reached the sim loop.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v := waitJob(t, ts.URL, sub.ID, 30*time.Second)
	if v.Status != StatusCanceled {
		t.Fatalf("job = %+v, want canceled", v)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	_ = s
}

func TestTimeoutFailsJob(t *testing.T) {
	_, ts := testServer(t, Config{
		Runner: exp.NewRunner(exp.Options{Records: 200_000_000, Seed: 1, CacheEntries: 64}),
	})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf","timeout_ms":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, ts.URL, sub.ID, 30*time.Second)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("job = %+v, want failed with deadline error", v)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// Submissions after drain are 503 too.
	r2, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain run = %d (%s), want 503", r2.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ts.URL, sub.ID, 30*time.Second)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, mresp)
	mresp.Body.Close()
	for _, want := range []string{
		"serve_http_requests_total",
		"serve_jobs_created_total 1",
		"serve_jobs_done_total 1",
		"serve_job_latency_ms_count 1",
		"serve_result_cache_misses 1",
		"sched_jobs_submitted_total 1",
		"sched_jobs_completed_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestJobStoreEviction checks terminal job records are evicted FIFO
// beyond the cap while live jobs survive.
func TestJobStoreEviction(t *testing.T) {
	st := newJobStore(2)
	mk := func(id string, terminal bool) *Job {
		j := &Job{id: id, done: make(chan struct{}), status: StatusQueued}
		if terminal {
			j.status = StatusDone
		}
		return j
	}
	st.add(mk("a", true))
	st.add(mk("b", false)) // live
	st.add(mk("c", true))
	if _, ok := st.get("a"); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := st.get("b"); !ok {
		t.Error("live job evicted")
	}
	if _, ok := st.get("c"); !ok {
		t.Error("newest job evicted")
	}
	if st.len() != 2 {
		t.Errorf("len = %d, want 2", st.len())
	}
}

// TestTracePoolBoundedUnderConcurrentSweeps is the daemon's
// bounded-memory contract: concurrent sweeps over more trace keys than
// the pool budget holds must never drive the shared pool past its byte
// budget (watched while the jobs are in flight), and distinct
// experiments over the same app must share one materialisation. The
// pool counters must be visible on /metrics.
func TestTracePoolBoundedUnderConcurrentSweeps(t *testing.T) {
	const budgetMB = 1
	runner := exp.NewRunner(exp.Options{Records: 5_000, Seed: 1, CacheEntries: 256, TracePoolMB: budgetMB})
	_, ts := testServer(t, Config{Runner: runner})

	// Watch the budget while the sweeps are in flight, not just after.
	stop := make(chan struct{})
	watcher := make(chan error, 1)
	go func() {
		defer close(watcher)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := runner.TraceStats(); st.Bytes > budgetMB<<20 {
				watcher <- fmt.Errorf("trace pool at %d bytes, budget %d", st.Bytes, budgetMB<<20)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	submit := func(body string) string {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status = %d, body %s", resp.StatusCode, b)
		}
		var sub submitResponse
		if err := json.Unmarshal(b, &sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}

	// Pressure phase: 12 distinct (app, records) keys materialise
	// ~1.2 MiB of packed records against a 1 MiB budget, so at least one
	// shard must evict.
	apps := []string{"mcf", "gcc", "hmmer", "bzip2"}
	var ids []string
	for i := 0; i < 12; i++ {
		ids = append(ids, submit(fmt.Sprintf(`{"experiment":"fig6","apps":["%s"],"records":%d}`,
			apps[i%len(apps)], 5_000+250*i)))
	}
	for _, id := range ids {
		if v := waitJob(t, ts.URL, id, 120*time.Second); v.Status != StatusDone {
			t.Fatalf("job %s = %+v, want done", id, v)
		}
	}
	st := rundownStats(t, runner, budgetMB)
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite oversubscribed pool: %+v", st)
	}

	// Sharing phase: two different experiments on one fresh key. fig6
	// materialises the trace; fig13's remaining config replays the
	// still-resident buffer -- a pool hit, not a second generation.
	id6 := submit(`{"experiment":"fig6","apps":["libquantum"],"records":4321}`)
	if v := waitJob(t, ts.URL, id6, 120*time.Second); v.Status != StatusDone {
		t.Fatalf("fig6 job = %+v, want done", v)
	}
	id13 := submit(`{"experiment":"fig13","apps":["libquantum"],"records":4321}`)
	if v := waitJob(t, ts.URL, id13, 120*time.Second); v.Status != StatusDone {
		t.Fatalf("fig13 job = %+v, want done", v)
	}
	if st := runner.TraceStats(); st.Hits == 0 {
		t.Fatalf("fig13 did not share fig6's materialised trace: %+v", st)
	}

	close(stop)
	if err := <-watcher; err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, mresp)
	mresp.Body.Close()
	for _, want := range []string{
		"serve_trace_pool_bytes",
		"serve_trace_pool_hits",
		"serve_trace_pool_misses",
		"serve_trace_pool_entries",
		"serve_trace_pool_evictions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// rundownStats asserts the pool is within budget and returns its stats.
func rundownStats(t *testing.T, runner *exp.Runner, budgetMB int64) replay.Stats {
	t.Helper()
	st := runner.TraceStats()
	if st.Bytes > budgetMB<<20 {
		t.Fatalf("trace pool %d bytes exceeds %d MiB budget", st.Bytes, budgetMB)
	}
	return st
}
