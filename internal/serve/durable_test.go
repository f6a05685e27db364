package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fault"
	"sipt/internal/journal"
	"sipt/internal/store"
)

// durableHarness is the crash-recovery fixture: a journal directory and
// a result-store directory that outlive individual server generations,
// so a test can "restart the daemon" by building a fresh server over
// the same dirs — exactly what cmd/siptd does after a real crash.
type durableHarness struct {
	jnlDir   string
	storeDir string
}

func newDurableHarness(t *testing.T) *durableHarness {
	t.Helper()
	return &durableHarness{jnlDir: t.TempDir(), storeDir: t.TempDir()}
}

// boot starts one server generation. The runner is built fresh each
// generation (empty memo cache — RAM state dies with the process); only
// the store and journal survive, as in a real restart.
func (h *durableHarness) boot(t *testing.T) (*Server, *exp.Runner, *journal.Journal) {
	t.Helper()
	st, err := store.Open(h.storeDir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64, Store: st})
	s := New(Config{Runner: runner, Workers: 2, Journal: jnl, ResultStore: st})
	t.Cleanup(func() {
		s.Drain()
		jnl.Close()
	})
	return s, runner, jnl
}

// serveHTTP exposes one server generation over HTTP. httptest's Close
// is idempotent, so tests may close a generation mid-test to "crash" it
// and the cleanup stays safe.
func serveHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func tablesJSON(t *testing.T, v JobView) string {
	t.Helper()
	b, err := json.Marshal(v.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFinishedJobSurvivesRestart: a done sweep is re-registered from
// the journal after a restart and served straight from the result store
// — byte-identical tables, zero re-simulations — and the ID allocator
// resumes past it so IDs stay dense across the restart.
func TestFinishedJobSurvivesRestart(t *testing.T) {
	h := newDurableHarness(t)

	s1, _, _ := h.boot(t)
	ts1 := serveHTTP(t, s1)
	resp, body := postJSON(t, ts1.URL+"/v1/sweep", `{"experiment":"fig5","apps":["mcf"],"records":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status = %d (%s)", resp.StatusCode, body)
	}
	ref := waitJob(t, ts1.URL, "job-1", 60*time.Second)
	if ref.Status != StatusDone {
		t.Fatalf("reference sweep = %+v, want done", ref)
	}
	ts1.Close()
	s1.Drain()

	s2, runner2, _ := h.boot(t)
	ts2 := serveHTTP(t, s2)
	got := waitJob(t, ts2.URL, "job-1", 10*time.Second)
	if got.Status != StatusDone {
		t.Fatalf("recovered job = %+v, want done", got)
	}
	if a, b := tablesJSON(t, ref), tablesJSON(t, got); a != b {
		t.Errorf("recovered tables differ from reference:\n%s\nvs\n%s", a, b)
	}
	if n := runner2.Simulations(); n != 0 {
		t.Errorf("recovery simulated %d times, want 0 (blob served from store)", n)
	}
	if n := s2.journalReplayed.Load(); n != 1 {
		t.Errorf("serve_journal_replayed_total = %d, want 1", n)
	}
	if n := s2.sweepsResumed.Load(); n != 0 {
		t.Errorf("serve_sweeps_resumed_total = %d, want 0 (job was finished)", n)
	}

	// The allocator resumed past job-1: the next admission is job-2,
	// dense across the crash boundary.
	resp, body = postJSON(t, ts2.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart run status = %d (%s)", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID != "job-2" {
		t.Errorf("post-restart admission = %s, want job-2", sub.ID)
	}
	waitJob(t, ts2.URL, sub.ID, 60*time.Second)
}

// TestInterruptedSweepResumesFromCheckpoints: a sweep whose process
// died mid-flight (admitted + started + every lane checkpointed, no
// finished record) is resubmitted at startup and completes from the
// store alone — byte-identical tables, zero re-simulations — with the
// resume visible on serve_sweeps_resumed_total. This is also the
// journal a crash leaves between runJob settling a job (GET already
// shows done, as the reference read below did) and journalFinish
// appending its finished record: the client's result comes back
// byte-identical under the same ID.
func TestInterruptedSweepResumesFromCheckpoints(t *testing.T) {
	h := newDurableHarness(t)

	// Generation 1 produces the reference output and a fully
	// checkpointed journal.
	s1, _, _ := h.boot(t)
	ts1 := serveHTTP(t, s1)
	resp, body := postJSON(t, ts1.URL+"/v1/sweep", `{"experiment":"fig6","apps":["mcf"],"records":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status = %d (%s)", resp.StatusCode, body)
	}
	ref := waitJob(t, ts1.URL, "job-1", 60*time.Second)
	if ref.Status != StatusDone {
		t.Fatalf("reference sweep = %+v, want done", ref)
	}
	ts1.Close()
	s1.Drain()

	// Rewrite history: a journal that ends exactly where a SIGKILL
	// mid-sweep would leave it — admission, start, and the lane
	// checkpoints, but no finished record.
	jobs, _, err := journal.Replay(h.jnlDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !jobs[0].Settled() || len(jobs[0].Lanes) == 0 {
		t.Fatalf("unexpected journal state %+v", jobs)
	}
	h.jnlDir = t.TempDir()
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	js := jobs[0]
	mustAppend := func(rec journal.Record, sync bool) {
		t.Helper()
		if err := jnl.Append(rec, sync); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(journal.Record{Type: journal.TypeAdmitted, ID: js.ID, Seq: js.Seq, Kind: js.Kind, Request: js.Request}, true)
	mustAppend(journal.Record{Type: journal.TypeStarted, ID: js.ID}, false)
	for _, lane := range js.Lanes {
		mustAppend(journal.Record{Type: journal.TypeLane, ID: js.ID, Digest: lane}, false)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 resumes it.
	s2, runner2, _ := h.boot(t)
	ts2 := serveHTTP(t, s2)
	got := waitJob(t, ts2.URL, "job-1", 60*time.Second)
	if got.Status != StatusDone {
		t.Fatalf("resumed sweep = %+v, want done", got)
	}
	if a, b := tablesJSON(t, ref), tablesJSON(t, got); a != b {
		t.Errorf("resumed tables differ from reference:\n%s\nvs\n%s", a, b)
	}
	if n := runner2.Simulations(); n != 0 {
		t.Errorf("resume simulated %d times, want 0 (every lane checkpointed)", n)
	}
	if n := s2.journalReplayed.Load(); n != 1 {
		t.Errorf("serve_journal_replayed_total = %d, want 1", n)
	}
	if n := s2.sweepsResumed.Load(); n != 1 {
		t.Errorf("serve_sweeps_resumed_total = %d, want 1", n)
	}

	// The resumed completion was journaled: a third generation serves
	// it terminal without re-running anything.
	ts2.Close()
	s2.Drain()
	s3, runner3, _ := h.boot(t)
	ts3 := serveHTTP(t, s3)
	again := waitJob(t, ts3.URL, "job-1", 10*time.Second)
	if again.Status != StatusDone || tablesJSON(t, again) != tablesJSON(t, ref) {
		t.Errorf("third-generation view = %+v, want the reference tables", again)
	}
	if n := runner3.Simulations(); n != 0 {
		t.Errorf("third generation simulated %d times, want 0", n)
	}
}

// TestCanceledJobNotResurrected: a journal recording a cancellation
// with no finish (the daemon died between DELETE and the worker's
// settle) recovers terminal-canceled — replay must not resurrect work
// the operator stopped.
func TestCanceledJobNotResurrected(t *testing.T) {
	h := newDurableHarness(t)
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []journal.Record{
		{Type: journal.TypeAdmitted, ID: "job-1", Seq: 1, Kind: "sweep", Request: []byte(`{"experiment":"fig5","apps":["mcf"],"records":2000}`)},
		{Type: journal.TypeStarted, ID: "job-1"},
		{Type: journal.TypeCanceled, ID: "job-1"},
	}
	for _, rec := range recs {
		if err := jnl.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, runner, _ := h.boot(t)
	ts := serveHTTP(t, s)
	v := waitJob(t, ts.URL, "job-1", 10*time.Second)
	if v.Status != StatusCanceled {
		t.Errorf("recovered canceled job = %+v, want canceled", v)
	}
	if n := runner.Simulations(); n != 0 {
		t.Errorf("canceled job simulated %d times, want 0", n)
	}
	if n := s.sweepsResumed.Load(); n != 0 {
		t.Errorf("serve_sweeps_resumed_total = %d, want 0", n)
	}
}

// TestDoneJobWithEvictedBlobRecomputes: a finished record whose result
// blob the store has since evicted falls back to deterministic
// recompute — the job comes back done, not failed.
func TestDoneJobWithEvictedBlobRecomputes(t *testing.T) {
	h := newDurableHarness(t)
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []journal.Record{
		{Type: journal.TypeAdmitted, ID: "job-1", Seq: 1, Kind: "run", Request: []byte(`{"app":"mcf"}`)},
		{Type: journal.TypeFinished, ID: "job-1", Status: "done", Digest: strings.Repeat("ab", 32)},
	}
	for _, rec := range recs {
		if err := jnl.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, _ := h.boot(t)
	ts := serveHTTP(t, s)
	v := waitJob(t, ts.URL, "job-1", 60*time.Second)
	if v.Status != StatusDone || len(v.Tables) == 0 {
		t.Errorf("recomputed job = %+v, want done with tables", v)
	}
}

// TestUnrebuildableJobFailsLoudly: a journaled job whose request no
// longer validates (unknown kind here) settles failed with the reason —
// recovery never silently drops an admitted job.
func TestUnrebuildableJobFailsLoudly(t *testing.T) {
	h := newDurableHarness(t)
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Type: journal.TypeAdmitted, ID: "job-1", Seq: 1, Kind: "seance", Request: []byte(`{}`)}, true); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, _ := h.boot(t)
	ts := serveHTTP(t, s)
	v := waitJob(t, ts.URL, "job-1", 10*time.Second)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "seance") {
		t.Errorf("unrebuildable job = %+v, want failed naming the kind", v)
	}
}

// TestAdmissionNotDurableRejected: when the journal cannot make an
// admission durable (injected fsync failure), the server answers 503
// and does not register the job — it never acks work it cannot promise
// to survive. The next admission (journal healthy again) succeeds.
func TestAdmissionNotDurableRejected(t *testing.T) {
	h := newDurableHarness(t)
	s, _, _ := h.boot(t)
	ts := serveHTTP(t, s)

	spec, err := fault.ParseSpec("journal.fsync.err:1/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 1); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	fault.Disarm()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("non-durable admission status = %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not durable") {
		t.Errorf("error body %q does not say not durable", body)
	}
	if n := s.journalErrs.Load(); n == 0 {
		t.Error("serve_journal_errors_total = 0, want > 0")
	}

	resp, body = postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy admission status = %d (%s)", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Sequence 1 was burned by the failed admission; the journaled ID
	// space stays monotonic and gap-tolerant.
	if sub.ID != "job-2" {
		t.Errorf("post-failure admission = %s, want job-2", sub.ID)
	}
	waitJob(t, ts.URL, sub.ID, 60*time.Second)
}

// TestCancelEndpointJournals: DELETE on a live job lands a canceled
// record, so a crash right after the ack cannot resurrect the job.
func TestCancelEndpointJournals(t *testing.T) {
	h := newDurableHarness(t)
	st, err := store.Open(h.storeDir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(h.jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One slow job: enormous record count, cancelled long before done.
	runner := exp.NewRunner(exp.Options{Records: 200_000_000, Seed: 1, CacheEntries: 64, Store: st})
	s := New(Config{Runner: runner, Workers: 1, Journal: jnl, ResultStore: st})
	ts := serveHTTP(t, s)
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, ts.URL, "job-1", 30*time.Second)
	if v.Status != StatusCanceled {
		t.Fatalf("job after DELETE = %+v, want canceled", v)
	}
	ts.Close()
	s.Drain()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, _, err := journal.Replay(h.jnlDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !jobs[0].Canceled || jobs[0].Status != "canceled" {
		t.Errorf("journal after DELETE = %+v, want canceled job-1", jobs)
	}
}
