package serve

// Robustness tests: readiness probing, panic isolation at the HTTP
// layer, transient-retry backoff, adaptive backpressure, and the
// degraded-run metric. The chaos acceptance suite lives in
// internal/fault/chaos_test.go; these are the targeted unit tests for
// each mechanism.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fault"
	"sipt/internal/report"
	"sipt/internal/sched"
)

// maxRetries is the retry budget of the ladder fault.Retry runs.
const maxRetries = 3

// swapSleep replaces the package sleep hook for the test, recording the
// requested delays instead of waiting, and restores it on cleanup.
func swapSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var mu sync.Mutex
	var delays []time.Duration
	orig := sleep
	sleep = func(d time.Duration) {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
	}
	t.Cleanup(func() { sleep = orig })
	return &delays
}

func TestReadyzOK(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d (%s), want 200", resp.StatusCode, body)
	}
	if !strings.Contains(body, "ready") {
		t.Errorf("readyz body = %s", body)
	}
}

func TestReadyzDraining(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.Drain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzWedgedPool distinguishes /readyz from /healthz: with every
// worker stuck, liveness stays green but readiness must fail — the
// heartbeat probe cannot run within the deadline. Releasing the worker
// restores readiness.
func TestReadyzWedgedPool(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, ReadyTimeout: 50 * time.Millisecond})

	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	if err := s.pool.Submit(context.Background(), sched.Interactive,
		func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with wedged pool = %d (%s), want 503", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz with wedged pool = %d, want 200 (liveness, not readiness)", hresp.StatusCode)
	}

	once.Do(func() { close(release) })
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d after release", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPanickedJobFailsNotCompleted is the HTTP-layer half of the
// panic-isolation contract (the sched half is TestPanicIsolation): a
// job whose function panics settles as failed with the worker's stack
// in its error, the daemon keeps serving, and the failure lands on the
// failed counters — never the done ones.
func TestPanickedJobFailsNotCompleted(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	j, err := s.submit("run", sched.Interactive, 0, nil,
		func(context.Context, string) (jobResult, error) { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("panicked job never settled")
	}
	v := j.View()
	if v.Status != StatusFailed {
		t.Fatalf("panicked job = %+v, want failed", v)
	}
	if !strings.Contains(v.Error, "panic: kaboom") || !strings.Contains(v.Error, "goroutine ") {
		t.Errorf("panicked job error lacks panic value or stack:\n%s", v.Error)
	}
	if got := s.jobsFailed.Load(); got != 1 {
		t.Errorf("serve_jobs_failed_total = %d, want 1", got)
	}
	if got := s.jobsDone.Load(); got != 0 {
		t.Errorf("serve_jobs_done_total = %d, want 0", got)
	}
	// The daemon survives: a normal run still completes.
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-panic submit = %d (%s)", resp.StatusCode, body)
	}
	if v := waitJob(t, ts.URL, "job-2", 30*time.Second); v.Status != StatusDone {
		t.Fatalf("post-panic job = %+v, want done", v)
	}
}

// TestTerminalCountersSettleBeforeDone: by the time Done() fires, the
// job's terminal counter and its latency observation are already
// recorded, for every way a job can end. A waiter reading /metrics
// right after its job settles must never see the job uncounted.
func TestTerminalCountersSettleBeforeDone(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	cases := []struct {
		name                   string
		run                    runFunc
		done, failed, canceled uint64
	}{
		{"done", func(context.Context, string) (jobResult, error) { return jobResult{}, nil }, 1, 0, 0},
		{"failed", func(context.Context, string) (jobResult, error) { return jobResult{}, errors.New("boom") }, 1, 1, 0},
		{"canceled", func(context.Context, string) (jobResult, error) { return jobResult{}, context.Canceled }, 1, 1, 1},
		{"panicked", func(context.Context, string) (jobResult, error) { panic("kaboom") }, 1, 2, 1},
	}
	for i, c := range cases {
		j, err := s.submit("run", sched.Interactive, 0, nil, c.run)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		got := [4]uint64{s.jobsDone.Load(), s.jobsFailed.Load(), s.jobsCanceled.Load(), s.latency.Count()}
		if want := [4]uint64{c.done, c.failed, c.canceled, uint64(i + 1)}; got != want {
			t.Fatalf("%s: after Done() done/failed/canceled/latency = %v, want %v", c.name, got, want)
		}
	}
}

// TestTransientRetrySucceeds: a job failing twice with fault.Transient
// then succeeding must settle done after exactly the documented backoff
// schedule (10ms, 20ms), with the retries counted.
func TestTransientRetrySucceeds(t *testing.T) {
	delays := swapSleep(t)
	s, _ := testServer(t, Config{Workers: 1})
	var attempts atomic.Int32
	j, err := s.submit("run", sched.Interactive, 0, nil,
		func(context.Context, string) (jobResult, error) {
			if attempts.Add(1) <= 2 {
				return jobResult{}, fault.Transient(errors.New("flaky backend"))
			}
			return jobResult{tables: []*report.Table{{Title: "ok"}}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st != StatusDone {
		t.Fatalf("status = %s, want done (error %q)", st, j.View().Error)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(*delays) != len(want) {
		t.Fatalf("backoff schedule = %v, want %v", *delays, want)
	}
	for i, d := range want {
		if (*delays)[i] != d {
			t.Errorf("backoff[%d] = %v, want %v", i, (*delays)[i], d)
		}
	}
	if got := s.jobRetries.Load(); got != 2 {
		t.Errorf("serve_job_retries_total = %d, want 2", got)
	}
}

// TestTransientRetryExhausted: a persistently transient failure is
// retried maxRetries times (full backoff ladder, capped) and then
// surfaces as failed.
func TestTransientRetryExhausted(t *testing.T) {
	delays := swapSleep(t)
	s, _ := testServer(t, Config{Workers: 1})
	var attempts atomic.Int32
	j, err := s.submit("run", sched.Interactive, 0, nil,
		func(context.Context, string) (jobResult, error) {
			attempts.Add(1)
			return jobResult{}, fault.Transient(errors.New("always flaky"))
		})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st != StatusFailed {
		t.Fatalf("status = %s, want failed", st)
	}
	if n := attempts.Load(); n != 1+maxRetries {
		t.Errorf("attempts = %d, want %d", n, 1+maxRetries)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(*delays) != len(want) {
		t.Fatalf("backoff schedule = %v, want %v", *delays, want)
	}
	if got := s.jobRetries.Load(); got != maxRetries {
		t.Errorf("serve_job_retries_total = %d, want %d", got, maxRetries)
	}
}

// TestPermanentErrorNotRetried: ordinary failures skip the retry loop
// entirely — only fault.Transient-wrapped errors earn backoff.
func TestPermanentErrorNotRetried(t *testing.T) {
	delays := swapSleep(t)
	s, _ := testServer(t, Config{Workers: 1})
	var attempts atomic.Int32
	j, err := s.submit("run", sched.Interactive, 0, nil,
		func(context.Context, string) (jobResult, error) {
			attempts.Add(1)
			return jobResult{}, errors.New("hard failure")
		})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st != StatusFailed {
		t.Fatalf("status = %s, want failed", st)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("attempts = %d, want 1 (no retries)", n)
	}
	if len(*delays) != 0 {
		t.Errorf("backoff schedule = %v, want empty", *delays)
	}
	if got := s.jobRetries.Load(); got != 0 {
		t.Errorf("serve_job_retries_total = %d, want 0", got)
	}
}

// TestRetryAfterSeconds pins the adaptive backpressure estimate: 1 with
// no latency history, backlog×mean-latency÷workers once jobs have run,
// clamped to [1, 60].
func TestRetryAfterSeconds(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no history: retry-after = %d, want 1", got)
	}
	// One observed 5s job, empty queue, one worker: backlog 1 → 5s.
	s.observeLatency(5000)
	if got := s.retryAfterSeconds(); got != 5 {
		t.Errorf("5s mean latency: retry-after = %d, want 5", got)
	}
	// Absurd latency clamps to the 60s ceiling.
	s.observeLatency(10_000_000)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("huge mean latency: retry-after = %d, want 60", got)
	}
}

// TestAdaptiveRetryAfterHeader drives a real 429 and checks the header
// reflects observed latency rather than the old hardcoded "1".
func TestAdaptiveRetryAfterHeader(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})

	// Seed latency history: mean 3s over one worker.
	s.observeLatency(3000)

	// Wedge the worker and fill the interactive queue.
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	if err := s.pool.Submit(context.Background(), sched.Interactive,
		func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	// Fill the queue (capacity 1) — may need a retry while the wedge job
	// moves from queue to worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf","timeout_ms":1}`)
		if resp.StatusCode == http.StatusAccepted && s.pool.Depth() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not fill the queue")
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.ParseInt(ra, 10, 64)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	// Backlog ≥ 2 (queued job + this one) at 3s mean over one worker.
	if secs < 6 || secs > 60 {
		t.Errorf("Retry-After = %d, want adaptive value in [6, 60]", secs)
	}
}

// TestShedBulkUnderInteractiveLoad: bulk sweeps are rejected 429 while
// the interactive queue is backed up, with the adaptive Retry-After.
func TestShedBulkUnderInteractiveLoad(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	// Default ShedBulkAt = depth/2 = 2 waiting interactive jobs.
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	if err := s.pool.Submit(context.Background(), sched.Interactive,
		func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Depth() < 2 {
		resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf","timeout_ms":1}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive fill = %d (%s)", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("could not back up the interactive queue")
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5","apps":["mcf"],"records":2000}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk under interactive load = %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shedding") {
		t.Errorf("shed body = %s, want shedding message", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

// TestDegradedRunsMetric: with the trace pool failing (injected
// eviction storm), runs fall back to live generation, still succeed,
// and the fallback is visible as serve_degraded_runs_total.
func TestDegradedRunsMetric(t *testing.T) {
	spec, err := fault.ParseSpec("replay.pool.evict:1/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64})
	_, ts := testServer(t, Config{Runner: runner})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"app":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if v := waitJob(t, ts.URL, "job-1", 30*time.Second); v.Status != StatusDone {
		t.Fatalf("degraded run = %+v, want done (graceful degradation)", v)
	}
	if got := runner.DegradedRuns(); got == 0 {
		t.Fatal("DegradedRuns = 0, want > 0")
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, mresp)
	mresp.Body.Close()
	if !strings.Contains(out, "serve_degraded_runs_total 1") {
		t.Errorf("metrics missing serve_degraded_runs_total 1:\n%s", out)
	}
}
