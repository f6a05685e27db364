package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sipt/internal/exp"
	"sipt/internal/journal"
	"sipt/internal/serve"
	"sipt/internal/store"
)

// Daemon sizing shared by both serve workloads and the layer pass's
// serve probe: two scheduler workers (nproc on the reference host),
// one simulation worker per job, fixed store and pool budgets so
// eviction runs at a steady rate instead of depending on run length.
const (
	serveWorkers = 2
	serveClients = 2
	storeMB      = 128
	tracePoolMB  = 64
)

// daemon is an in-process siptd: the same components cmd/siptd wires
// up with -store-dir and -journal-dir, listening on a loopback port.
type daemon struct {
	dir     string
	results *store.Store
	jnl     *journal.Journal
	runner  *exp.Runner
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	client  *client
}

// openDaemon starts a daemon over dir, replaying any journal a previous
// daemon left there.
func openDaemon(dir string, seed int64) (*daemon, error) {
	results, err := store.Open(filepath.Join(dir, "results"), storeMB<<20)
	if err != nil {
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	traces, err := store.Open(filepath.Join(dir, "traces"), storeMB<<20)
	if err != nil {
		return nil, fmt.Errorf("opening trace store: %w", err)
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal"), 0)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	runner := exp.NewRunner(exp.Options{Seed: seed, Workers: 1, TracePoolMB: tracePoolMB, Store: results})
	srv := serve.New(serve.Config{
		Runner:      runner,
		Workers:     serveWorkers,
		TraceStore:  traces,
		Journal:     jnl,
		ResultStore: results,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		jnl.Close()
		return nil, err
	}
	d := &daemon{dir: dir, results: results, jnl: jnl, runner: runner, srv: srv,
		hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		client: newClient("http://" + ln.Addr().String())}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon the way siptd does on SIGTERM: stop
// admission, finish every accepted job, shut the listener, release the
// journal.
func (d *daemon) close() error {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	d.client.close()
	if jerr := d.jnl.Close(); err == nil {
		err = jerr
	}
	return err
}

// metrics scrapes GET /metrics into name -> value (histogram buckets
// are skipped).
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	code, body, err := d.client.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// client is a keep-alive HTTP client for one daemon.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the whole body. A
// non-nil body that is not a []byte is sent as JSON.
func (c *client) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// jobSpec is one request a closed-loop client submits. Key identifies
// the distinct request, so the first served result per key can be
// checked against a direct run.
type jobSpec struct {
	path string
	body any
	key  int
}

// loopStats is what a closed loop measured. Latencies are per job, in
// ms: the whole job from the start of its POST until a poll saw it
// terminal, the POST round trip (admit), each GET round trip (poll),
// the server-reported run time (elapsed_ms), and the remainder (wait).
type loopStats struct {
	latMS, admitMS, pollMS, runMS, waitMS []float64
	done, attempted, failed, rejected     int
	polls                                 int
	errs                                  []string
	views                                 map[int][]serve.JobView // first served view per key, per client
}

func (s *loopStats) merge(o *loopStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.admitMS = append(s.admitMS, o.admitMS...)
	s.pollMS = append(s.pollMS, o.pollMS...)
	s.runMS = append(s.runMS, o.runMS...)
	s.waitMS = append(s.waitMS, o.waitMS...)
	s.done += o.done
	s.attempted += o.attempted
	s.failed += o.failed
	s.rejected += o.rejected
	s.polls += o.polls
	s.errs = append(s.errs, o.errs...)
	for k, vs := range o.views {
		s.views[k] = append(s.views[k], vs...)
	}
}

func (s *loopStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// closedLoop runs serveClients clients against c. Each takes the next
// job index, submits spec(k), polls every pollEvery until the job is
// terminal, and only then submits again — siptd's real callers (the
// fabric client, the CLI, examples/service) wait for their job the same
// way. Clients stop taking jobs once more(k, elapsed) is false; jobs
// already submitted finish and count.
func closedLoop(ctx context.Context, c *client, spec func(k int) jobSpec, pollEvery time.Duration,
	more func(k int, elapsed time.Duration) bool, keep func(key int) bool, tr *tracer) (*loopStats, time.Duration) {

	var next atomic.Int64
	per := make([]*loopStats, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range per {
		st := &loopStats{views: map[int][]serve.JobView{}}
		per[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if !more(k, time.Since(start)) {
					return
				}
				runJob(ctx, c, spec(k), pollEvery, st, keep, tr)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	all := &loopStats{views: map[int][]serve.JobView{}}
	for _, st := range per {
		all.merge(st)
	}
	if err := ctx.Err(); err != nil {
		all.fail("closed loop: %v", err)
	}
	return all, wall
}

// runJob submits one job and polls it to a terminal state.
func runJob(ctx context.Context, c *client, js jobSpec, pollEvery time.Duration, st *loopStats,
	keep func(key int) bool, tr *tracer) {

	st.attempted++
	job := tr.begin("job", 0, "")
	defer tr.end(job)
	t0 := time.Now()
	sub := tr.begin("http.submit", job, "")
	code, body, err := c.do(ctx, http.MethodPost, js.path, js.body)
	tr.end(sub)
	st.admitMS = append(st.admitMS, msSince(t0))
	if err != nil {
		st.fail("POST %s: %v", js.path, err)
		return
	}
	if code != http.StatusAccepted {
		if code == http.StatusTooManyRequests {
			st.rejected++
		}
		st.fail("POST %s: status %d: %s", js.path, code, bytes.TrimSpace(body))
		return
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		st.fail("POST %s: decoding response: %v", js.path, err)
		return
	}
	tr.setReq(job, ack.ID)
	tr.setReq(sub, ack.ID)
	for {
		select {
		case <-ctx.Done():
			st.fail("%s: %v", ack.ID, ctx.Err())
			return
		case <-time.After(pollEvery):
		}
		tp := time.Now()
		endNS := tr.now()
		poll := tr.begin("http.poll", job, ack.ID)
		code, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+ack.ID, nil)
		tr.end(poll)
		st.polls++
		st.pollMS = append(st.pollMS, msSince(tp))
		if err != nil || code != http.StatusOK {
			st.fail("GET %s: %d %v", ack.ID, code, err)
			return
		}
		var v serve.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			st.fail("GET %s: decoding: %v", ack.ID, err)
			return
		}
		if !v.Status.Terminal() {
			continue
		}
		lat := msSince(t0)
		if v.Status != serve.StatusDone {
			st.fail("%s: %s: %s", ack.ID, v.Status, v.Error)
			return
		}
		st.done++
		st.latMS = append(st.latMS, lat)
		st.runMS = append(st.runMS, v.ElapsedMS)
		st.waitMS = append(st.waitMS, lat-v.ElapsedMS)
		// The server ran the job somewhere before this poll began.
		tr.derive("server.run", job, ack.ID, endNS, time.Duration(v.ElapsedMS*1e6))
		if keep(js.key) && len(st.views[js.key]) == 0 {
			st.views[js.key] = []serve.JobView{v}
		}
		return
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// serveLayers derives the serving-stack layer metrics from a closed
// loop and the daemon's /metrics counters before and after it (units
// come from layerDefs).
func serveLayers(ls *loopStats, before, after map[string]float64) map[string]metric {
	delta := func(name string) float64 { return after[name] - before[name] }
	jobs := float64(ls.done)
	v := func(x float64) metric { return metric{Value: x} }
	perJob := func(name string) metric { return v(ratio(delta(name), jobs)) }
	memoHits := delta("serve_result_cache_hits")
	poolHits := delta("serve_trace_pool_hits")
	return map[string]metric{
		"serve.admit_ms_p50":    v(quantile(ls.admitMS, 0.5)),
		"serve.admit_ms_p99":    v(quantile(ls.admitMS, 0.99)),
		"serve.poll_ms_p50":     v(quantile(ls.pollMS, 0.5)),
		"serve.run_ms_p50":      v(quantile(ls.runMS, 0.5)),
		"serve.wait_ms_p50":     v(quantile(ls.waitMS, 0.5)),
		"serve.polls_per_job":   v(ratio(float64(ls.polls), jobs)),
		"serve.rejected_ratio":  v(ratio(float64(ls.rejected), float64(ls.attempted))),
		"serve.retries_per_job": perJob("serve_job_retries_total"),
		"serve.sims_per_job":    perJob("serve_simulations_total"),
		"journal.syncs_per_job": perJob("journal_syncs_total"),
		"store.puts_per_job":    perJob("store_puts_total"),
		"store.hits_per_job":    perJob("store_hits_total"),
		"memo.hit_ratio":        v(ratio(memoHits, memoHits+delta("serve_result_cache_misses"))),
		"replay.pool_hit_ratio": v(ratio(poolHits, poolHits+delta("serve_trace_pool_misses"))),
	}
}

// servePhase runs a timed closed loop on d and turns it into a
// phaseResult: completed jobs per second, per-job latency, the served
// views keep selects, and the serving layer metrics.
func servePhase(ctx context.Context, d *daemon, spec func(k int) jobSpec, pollEvery, dur time.Duration,
	keep func(key int) bool, tr *tracer) (*phaseResult, error) {

	before, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	ls, wall := closedLoop(ctx, d.client, spec, pollEvery,
		func(_ int, elapsed time.Duration) bool { return elapsed < dur }, keep, tr)
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	return &phaseResult{
		wall:      wall,
		jobs:      ls.done,
		latMS:     ls.latMS,
		attempted: ls.attempted,
		failed:    ls.failed,
		errs:      ls.errs,
		views:     ls.views,
		layers:    serveLayers(ls, before, after),
	}, nil
}
