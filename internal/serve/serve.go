// Package serve implements the siptd HTTP API: a thin JSON layer over
// the experiment harness (internal/exp), the job scheduler
// (internal/sched), and the metrics registry (internal/metrics).
//
// Endpoints:
//
//	POST   /v1/run       submit one simulation        -> 202 {id, status}
//	POST   /v1/sweep     submit one experiment sweep  -> 202 {id, status}
//	POST   /v1/shard     submit one fabric shard      -> 202 {id, status}
//	POST   /v1/traces    ingest a trace file (see traces.go)
//	GET    /v1/traces    list ingested traces
//	GET    /v1/shards/{id} a shard job in the fabric wire shape (shard.go)
//	GET    /v1/jobs/{id} job status and, when done, result tables
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET    /healthz      liveness (503 while draining)
//	GET    /readyz       readiness: not draining AND worker pool proven
//	                     live by a heartbeat job within a deadline
//	GET    /metrics      Prometheus text format
//
// Each POST /v1/{kind} is one row of the job-kind table (kinds.go):
// runs are Interactive-priority (a user is waiting); sweeps and fabric
// shards are Bulk.
// A full or shedding queue answers 429 with an adaptive Retry-After
// (estimated from live queue depth and observed job latency); a
// draining server answers 503. Results are report.Table documents — the
// same deterministic JSON encoding cmd/siptbench emits.
//
// Failure model (DESIGN.md §10): a panicking job is recovered on its
// scheduler worker and reported failed with the stack in its error —
// the daemon survives. Jobs failing with a fault.Transient error are
// retried in place with bounded exponential backoff before the failure
// is surfaced.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fault"
	"sipt/internal/journal"
	"sipt/internal/metrics"
	"sipt/internal/report"
	"sipt/internal/sched"
	"sipt/internal/sim"
	"sipt/internal/store"
)

// runFunc is a job's executable body. The job ID is passed in so sweep
// bodies can journal per-lane checkpoints under their own identity.
type runFunc func(ctx context.Context, id string) (jobResult, error)

// decodeSlow is the API layer's injection point: armed (e.g.
// "serve.decode.slow:1/8"), a seeded fraction of request-body decodes
// stall briefly, exercising client-visible latency jitter without
// touching any simulation state.
var decodeSlow = fault.NewPoint("serve.decode.slow")

// decodeSlowDelay is the injected stall per fired decode.
const decodeSlowDelay = 5 * time.Millisecond

// Config sizes a Server.
type Config struct {
	// Runner executes simulations; its bounded memo cache is shared by
	// every request. Required.
	Runner *exp.Runner
	// Workers / QueueDepth size the scheduler pool (0 = sched
	// defaults).
	Workers    int
	QueueDepth int
	// MaxJobs bounds retained job records (0 = 256).
	MaxJobs int
	// Registry receives serving metrics (nil = a fresh registry).
	Registry *metrics.Registry
	// TraceStore holds ingested trace files, content-addressed by the
	// SHA-256 of their bytes. Nil disables the /v1/traces endpoints and
	// trace-replay runs (they answer 503).
	TraceStore *store.Store
	// MaxTraceBytes bounds POST /v1/traces upload size (0 = 64 MiB).
	// Other endpoints keep the much smaller maxBody cap.
	MaxTraceBytes int64
	// ReadyTimeout bounds /readyz's worker heartbeat: if no worker picks
	// up the probe job within it, the server reports not ready (0 = 2s).
	ReadyTimeout time.Duration
	// DisableShards rejects POST /v1/shard with 403. A coordinator
	// daemon sets it: it delegates simulation to its fleet, so serving
	// shards itself would recurse.
	DisableShards bool
	// Journal, when non-nil, makes serving crash-safe (DESIGN.md §15):
	// every admission is journaled (fsync) before the 202 is written,
	// sweep progress is checkpointed per lane, and New replays the
	// journal to rebuild the job table — finished jobs served from
	// ResultStore, interrupted ones resubmitted under their original
	// IDs. The server owns appends but not the journal's lifetime;
	// cmd/siptd closes it after the drain.
	Journal *journal.Journal
	// ResultStore persists finished jobs' rendered results (tables or
	// shard stats) content-addressed by blob digest; the journal's
	// finished records carry only the digest. Normally the same store
	// the Runner uses. With a Journal but no ResultStore, finished jobs
	// recover by deterministic recompute instead of a blob read.
	ResultStore *store.Store
}

// maxBody bounds the body of every request but a trace upload: the
// JSON control messages are small.
const maxBody = 1 << 20

// Server is the siptd HTTP handler plus its job machinery. Construct
// with New; it is safe for concurrent use.
type Server struct {
	runner        *exp.Runner
	pool          *sched.Pool
	reg           *metrics.Registry
	mux           *http.ServeMux
	jobs          *jobStore
	maxTraceBytes int64
	traceStore    *store.Store
	traces        *traceIndex
	readyTimeout  time.Duration
	disableShards bool
	jnl           *journal.Journal
	resultStore   *store.Store

	// baseCtx is the server lifecycle context every job context derives
	// from: Close cancels it, so a forced (non-drain) shutdown stops
	// inflight simulations instead of leaving them running detached.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// admitMu guards nextID and draining so job IDs are allocated in
	// admission order and drain is a clean cut: every job admitted
	// before Drain completes, everything after is rejected.
	admitMu  sync.Mutex
	nextID   uint64
	draining bool

	// latMu guards the EWMA of job latency backing Retry-After. The
	// histogram keeps the full distribution for /metrics; the EWMA
	// (weight 1/8) tracks the *current* service rate, so one early
	// batch of slow sweeps cannot inflate backpressure estimates for
	// the daemon's whole life.
	latMu   sync.Mutex
	ewmaMS  float64
	ewmaSet bool

	requests        *metrics.Counter
	jobsCreated     *metrics.Counter
	jobsDone        *metrics.Counter
	jobsFailed      *metrics.Counter
	jobsCanceled    *metrics.Counter
	rejected429     *metrics.Counter
	jobRetries      *metrics.Counter
	shardJobs       *metrics.Counter
	latency         *metrics.Histogram
	journalReplayed *metrics.Counter
	sweepsResumed   *metrics.Counter
	journalErrs     *metrics.Counter
	tracesIngested  *metrics.Counter
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Runner == nil {
		panic("serve: Config.Runner is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	maxTraceBytes := cfg.MaxTraceBytes
	if maxTraceBytes <= 0 {
		maxTraceBytes = 64 << 20
	}
	readyTimeout := cfg.ReadyTimeout
	if readyTimeout <= 0 {
		readyTimeout = 2 * time.Second
	}
	s := &Server{
		runner:        cfg.Runner,
		pool:          sched.New(sched.Config{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, Registry: reg}),
		reg:           reg,
		jobs:          newJobStore(cfg.MaxJobs),
		maxTraceBytes: maxTraceBytes,
		traceStore:    cfg.TraceStore,
		traces:        newTraceIndex(cfg.TraceStore),
		readyTimeout:  readyTimeout,
		disableShards: cfg.DisableShards,
		jnl:           cfg.Journal,
		resultStore:   cfg.ResultStore,

		requests:     reg.Counter("serve_http_requests_total", "HTTP requests received"),
		jobsCreated:  reg.Counter("serve_jobs_created_total", "jobs admitted"),
		jobsDone:     reg.Counter("serve_jobs_done_total", "jobs finished successfully"),
		jobsFailed:   reg.Counter("serve_jobs_failed_total", "jobs finished with an error"),
		jobsCanceled: reg.Counter("serve_jobs_canceled_total", "jobs stopped by cancellation"),
		rejected429:  reg.Counter("serve_jobs_rejected_total", "submissions rejected by backpressure"),
		jobRetries:   reg.Counter("serve_job_retries_total", "transient job failures retried in place"),
		shardJobs:    reg.Counter("serve_shard_jobs_total", "fabric shard jobs admitted"),
		latency: reg.Histogram("serve_job_latency_ms", "job run latency (ms)",
			1, 5, 10, 50, 100, 500, 1000, 5000, 10000),
		journalReplayed: reg.Counter("serve_journal_replayed_total", "jobs rebuilt from the journal at startup"),
		sweepsResumed:   reg.Counter("serve_sweeps_resumed_total", "interrupted sweeps resubmitted from their last checkpoint"),
		journalErrs:     reg.Counter("serve_journal_errors_total", "journal appends that failed (durability degraded)"),
		tracesIngested:  reg.Counter("serve_traces_ingested_total", "trace files ingested via POST /v1/traces"),
	}
	s.registerSourceGauges(reg)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	for i := range kinds {
		s.mux.HandleFunc("POST /v1/"+kinds[i].name, s.handleSubmit(&kinds[i]))
	}
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/traces/{digest}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/shards/{id}", s.handleShardGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.jnl != nil {
		s.recoverJournal()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// Trace uploads are whole files, not JSON control messages; they get
	// their own, much larger body cap. Everything else keeps the tight
	// default.
	limit := int64(maxBody)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
		limit = s.maxTraceBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	s.mux.ServeHTTP(w, r)
}

// Drain stops admission, waits for every accepted job to finish, and
// returns. cmd/siptd calls this on SIGTERM; tests call it directly.
func (s *Server) Drain() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.pool.Drain()
}

// Close force-stops the server: admission stops, every inflight job's
// context is cancelled (they all derive from the server lifecycle
// context), and the call returns once the workers have observed the
// cancellations and settled their jobs. Unlike Drain it does not let
// running simulations complete — it is the forced-shutdown path, and
// calling it after a graceful Drain is a harmless way to release the
// lifecycle context. Idempotent.
func (s *Server) Close() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.baseCancel()
	s.pool.Drain()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.draining
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// submitResponse is the JSON shape of a 202 from POST /v1/{kind}.
type submitResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// errNotDurable marks admissions rejected because the journal append
// failed: the server refuses to ack work it cannot promise to survive.
var errNotDurable = errors.New("admission not durable")

// submit admits a job: allocates its ID, hands it to the scheduler,
// journals the admission, and registers it — all under the admission
// lock, so IDs are dense, in admission order, and a job is either fully
// admitted (it will run, its record is visible, and its admission is on
// disk) or fully rejected. req is the decoded request body; it is
// re-marshalled into the admitted record so recovery can rebuild the
// job's closure from the journal alone.
func (s *Server) submit(kind string, pri sched.Priority, timeout time.Duration,
	req any, run runFunc) (*Job, error) {

	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining {
		return nil, sched.ErrDraining
	}
	id := s.nextID + 1
	j, err := s.schedule(fmt.Sprintf("job-%d", id), kind, pri, timeout, run)
	if err != nil {
		return nil, err
	}
	// Journal before acking, still under the admission lock: the fsync
	// serialises admissions, but in exchange the on-disk sequence
	// matches the ID sequence exactly, which is what makes "job IDs are
	// dense" checkable after a crash. A failed append settles the
	// already-scheduled job as failed (its body will see the cancelled
	// context and exit) and rejects the request: work the server cannot
	// promise to survive is not acked.
	if jerr := s.journalAdmit(j, id, kind, req); jerr != nil {
		s.nextID = id // the ID is burned; recovery tolerates the hole
		j.cancel()
		j.finish(StatusFailed, jobResult{}, jerr.Error(), nowNS(), func(int64) { s.jobsFailed.Inc() })
		return nil, fmt.Errorf("%w: %v", errNotDurable, jerr)
	}
	s.nextID = id
	s.jobs.add(j)
	s.jobsCreated.Inc()
	return j, nil
}

// schedule creates job id's context, its Job record and its scheduler
// task. New admissions (submit) and recovered jobs (resume) both reach
// the scheduler through here. On a scheduler error the context is
// released and nothing is left behind.
func (s *Server) schedule(id, kind string, pri sched.Priority, timeout time.Duration, run runFunc) (*Job, error) {
	// Jobs derive from the server lifecycle context, not Background:
	// Close cancels them all, so a forced shutdown cannot leave
	// simulations running detached.
	base := s.baseCtx
	var cancel context.CancelFunc
	if timeout > 0 {
		base, cancel = context.WithTimeout(base, timeout)
	} else {
		base, cancel = context.WithCancel(base)
	}
	j := &Job{
		id:          id,
		kind:        kind,
		cancel:      cancel,
		done:        make(chan struct{}),
		status:      StatusQueued,
		submittedNS: nowNS(),
	}
	if err := s.pool.SubmitObserved(base, pri, func(ctx context.Context) { s.runJob(j, ctx, run) }, s.panicObserver(j)); err != nil {
		cancel()
		return nil, err
	}
	return j, nil
}

// panicObserver settles jobs whose function (or the worker's injected
// fault) panicked: runJob's own bookkeeping never ran to completion, so
// the job would otherwise hang in queued/running forever. finish is
// idempotent, so the normal path and this path cannot double-settle.
// Every scheduled job gets one (see schedule).
func (s *Server) panicObserver(j *Job) func(v any, stack []byte) {
	return func(v any, stack []byte) {
		j.cancel()
		if s.settle(j, StatusFailed, jobResult{}, fmt.Sprintf("panic: %v\n\n%s", v, stack)) {
			s.journalFinish(j, jobResult{})
		}
	}
}

// runJob executes one admitted job on a scheduler worker and settles
// its terminal state and metrics. Transient failures (fault.Transient)
// are retried in place on fault.Retry's bounded backoff ladder
// (DESIGN.md §10) while the job's context is still live; panics and
// permanent errors are never retried.
func (s *Server) runJob(j *Job, ctx context.Context, run runFunc) {
	defer j.cancel() // release the timeout timer, if any
	j.setRunning(nowNS())
	s.journalStart(j)
	var res jobResult
	err := fault.Retry(ctx, func() (err error) {
		res, err = run(ctx, j.id)
		return err
	}, func(d, _ time.Duration, _ error) {
		sleep(d)
		s.jobRetries.Inc()
	})
	var settled bool
	switch {
	case err == nil:
		settled = s.settle(j, StatusDone, res, "")
	case errors.Is(err, context.Canceled):
		settled = s.settle(j, StatusCanceled, jobResult{}, err.Error())
	default:
		settled = s.settle(j, StatusFailed, jobResult{}, err.Error())
	}
	if settled {
		s.journalFinish(j, res)
	}
}

// settle finishes a job that ran (or panicked) on a worker. If this call
// settled it, the status's terminal counter and the job's latency are
// recorded before Done() fires.
func (s *Server) settle(j *Job, st Status, res jobResult, errMsg string) bool {
	return j.finish(st, res, errMsg, nowNS(), func(latNS int64) {
		switch st {
		case StatusDone:
			s.jobsDone.Inc()
		case StatusCanceled:
			s.jobsCanceled.Inc()
		default:
			s.jobsFailed.Inc()
		}
		s.observeLatency(latNS / 1e6)
	})
}

// ewmaWeight is the exponential moving average's new-sample weight
// (1/8): heavy enough that a sustained latency shift re-prices
// Retry-After within a dozen jobs, light enough that one outlier
// barely moves it.
const ewmaWeight = 0.125

// observeLatency records one settled job's latency: into the histogram
// (the full distribution, for /metrics) and into the EWMA backing
// Retry-After. Every finish path funnels through here so the two views
// cannot drift.
func (s *Server) observeLatency(ms int64) {
	s.latency.Observe(ms)
	s.latMu.Lock()
	if !s.ewmaSet {
		s.ewmaMS = float64(ms)
		s.ewmaSet = true
	} else {
		s.ewmaMS += ewmaWeight * (float64(ms) - s.ewmaMS)
	}
	s.latMu.Unlock()
}

// meanLatencyMS returns the EWMA job latency, 0 before any observation.
func (s *Server) meanLatencyMS() int64 {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return int64(s.ewmaMS)
}

// retryAfterSeconds estimates how long a rejected client should wait
// before retrying: the current queue backlog (plus the rejected job)
// divided across the workers, priced at the EWMA job latency. The
// moving average — not the histogram's lifetime mean, which never
// decays — makes the estimate track the *current* workload: after a
// spike of slow sweeps it recovers as fast jobs settle, instead of
// inflating Retry-After for the daemon's whole life. With no latency
// history yet it answers 1; the estimate is clamped to [1, 60] seconds
// so a latency spike cannot push clients away for minutes.
func (s *Server) retryAfterSeconds() int64 {
	meanMS := s.meanLatencyMS()
	if meanMS <= 0 {
		return 1
	}
	backlog := int64(s.pool.Depth()) + 1
	perSec := int64(s.pool.Workers()) * 1000
	secs := (backlog*meanMS + perSec - 1) / perSec
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// rejectSubmit translates scheduler admission errors to HTTP.
func (s *Server) rejectSubmit(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sched.ErrQueueFull), errors.Is(err, sched.ErrShedding):
		s.rejected429.Inc()
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		if errors.Is(err, sched.ErrShedding) {
			writeError(w, http.StatusTooManyRequests, "shedding bulk work under interactive load; retry later")
		} else {
			writeError(w, http.StatusTooManyRequests, "queue full; retry later")
		}
	case errors.Is(err, sched.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, errNotDurable):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// RunRequest is the body of POST /v1/run. Zero values take the
// documented defaults.
type RunRequest struct {
	App      string `json:"app"`                // workload name; required unless trace is set
	Trace    string `json:"trace,omitempty"`    // ingested trace digest; replaces app/scenario/records
	L1       string `json:"l1,omitempty"`       // geometry, e.g. "32K2w" (default)
	Mode     string `json:"mode,omitempty"`     // vipt|ideal|naive|bypass|combined (default combined)
	Core     string `json:"core,omitempty"`     // ooo|inorder (default ooo)
	Scenario string `json:"scenario,omitempty"` // normal|fragmented|thp-off|no-contig (default normal)
	WayPred  bool   `json:"waypred,omitempty"`
	Records  uint64 `json:"records,omitempty"` // trace length (0 = harness default)
	Seed     int64  `json:"seed,omitempty"`
	Timeout  int64  `json:"timeout_ms,omitempty"` // per-job deadline (0 = none)
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Experiment string   `json:"experiment"`     // exp ID, e.g. "fig6"; required
	Apps       []string `json:"apps,omitempty"` // restrict the app list
	Records    uint64   `json:"records,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Timeout    int64    `json:"timeout_ms,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// Journal the cancellation before signalling it: if the daemon dies
	// between the client's DELETE and the worker observing the cancelled
	// context, replay must not resurrect work the user already stopped.
	if !j.Status().Terminal() {
		s.journalCancel(j)
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz reports readiness, a stronger claim than /healthz's
// liveness: the server is not draining AND the worker pool demonstrably
// executes work — a heartbeat probe job must run within ReadyTimeout.
// A wedged or saturated pool (every worker stuck, queue full) turns the
// instance not-ready so a load balancer stops routing to it, while
// /healthz stays green and keeps the process from being restarted.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.readyTimeout)
	defer cancel()
	beat := make(chan struct{})
	err := s.pool.Submit(ctx, sched.Interactive, func(context.Context) { close(beat) })
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "not ready: %v", err)
		return
	}
	select {
	case <-beat:
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ready"})
	case <-ctx.Done():
		writeError(w, http.StatusServiceUnavailable, "not ready: worker heartbeat timed out")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteTo(w) //nolint:errcheck // client gone; nothing to do
}

// registerSourceGauges exposes the numbers other components already
// keep (the memo cache, the trace pool, the result and trace stores,
// the journal, the runner's simulation and degradation counts) as
// gauges read at scrape time. An absent store or journal reads 0.
func (s *Server) registerSourceGauges(reg *metrics.Registry) {
	r := s.runner
	reg.GaugeFunc("serve_degraded_runs_total", "runs degraded from trace replay to live generation", func() int64 { return int64(r.DegradedRuns()) })
	reg.GaugeFunc("serve_simulations_total", "simulations actually executed (memo and store misses)", func() int64 { return int64(r.Simulations()) })

	reg.GaugeFunc("serve_result_cache_entries", "memoised results resident", func() int64 { return int64(r.CacheStats().Entries) })
	reg.GaugeFunc("serve_result_cache_hits", "memo cache hits", func() int64 { return int64(r.CacheStats().Hits) })
	reg.GaugeFunc("serve_result_cache_misses", "memo cache misses", func() int64 { return int64(r.CacheStats().Misses) })
	reg.GaugeFunc("serve_result_cache_evictions", "memo cache evictions", func() int64 { return int64(r.CacheStats().Evictions) })

	reg.GaugeFunc("serve_trace_pool_entries", "materialised trace buffers resident", func() int64 { return int64(r.TraceStats().Entries) })
	reg.GaugeFunc("serve_trace_pool_bytes", "materialised trace bytes resident", func() int64 { return r.TraceStats().Bytes })
	reg.GaugeFunc("serve_trace_pool_hits", "trace pool hits", func() int64 { return int64(r.TraceStats().Hits) })
	reg.GaugeFunc("serve_trace_pool_misses", "trace pool misses", func() int64 { return int64(r.TraceStats().Misses) })
	reg.GaugeFunc("serve_trace_pool_evictions", "trace buffers evicted for the byte budget", func() int64 { return int64(r.TraceStats().Evictions) })
	reg.GaugeFunc("replay_pool_oversize_total", "traces too large for the pool's byte budget to retain", func() int64 { return int64(r.TraceStats().Oversize) })

	results := func() store.Stats { st, _ := r.StoreStats(); return st }
	reg.GaugeFunc("store_hits_total", "persistent result store hits", func() int64 { return int64(results().Hits) })
	reg.GaugeFunc("store_misses_total", "persistent result store misses", func() int64 { return int64(results().Misses) })
	reg.GaugeFunc("store_puts_total", "blobs persisted to the result store", func() int64 { return int64(results().Puts) })
	reg.GaugeFunc("store_evictions_total", "result store blobs evicted for the byte budget", func() int64 { return int64(results().Evictions) })
	reg.GaugeFunc("store_corrupt_total", "stored blobs failing checksum, discarded", func() int64 { return int64(results().Corrupt) })
	reg.GaugeFunc("store_orphans_swept_total", "orphaned temp files swept at store open", func() int64 { return int64(results().Orphans) })
	reg.GaugeFunc("store_entries", "blobs resident in the result store", func() int64 { return int64(results().Entries) })
	reg.GaugeFunc("store_bytes", "bytes resident in the result store", func() int64 { return results().Bytes })

	traces := func() store.Stats {
		if s.traceStore == nil {
			return store.Stats{}
		}
		return s.traceStore.Stats()
	}
	reg.GaugeFunc("trace_store_entries", "ingested trace files resident", func() int64 { return int64(traces().Entries) })
	reg.GaugeFunc("trace_store_bytes", "ingested trace bytes resident", func() int64 { return traces().Bytes })

	jnl := func() journal.Stats {
		if s.jnl == nil {
			return journal.Stats{}
		}
		return s.jnl.Stats()
	}
	reg.GaugeFunc("journal_segments", "journal segment files resident", func() int64 { return int64(jnl().Segments) })
	reg.GaugeFunc("journal_active_bytes", "bytes in the active journal segment", func() int64 { return jnl().ActiveBytes })
	reg.GaugeFunc("journal_appends_total", "journal records appended this process", func() int64 { return int64(jnl().Appends) })
	reg.GaugeFunc("journal_syncs_total", "journal durability barriers (fsync)", func() int64 { return int64(jnl().Syncs) })
	reg.GaugeFunc("journal_rotations_total", "journal segment rotations (compactions)", func() int64 { return int64(jnl().Rotations) })
	reg.GaugeFunc("journal_truncations_total", "torn journal tails truncated at open", func() int64 { return int64(jnl().Truncations) })
	reg.GaugeFunc("journal_records_replayed_total", "journal records decoded at open", func() int64 { return int64(jnl().Replayed) })
	reg.GaugeFunc("journal_jobs_dropped_total", "settled jobs dropped by journal compaction", func() int64 { return int64(jnl().Dropped) })
	reg.GaugeFunc("journal_live_jobs", "unsettled jobs resident in the journal", func() int64 { return int64(jnl().LiveJobs) })
}

// decodeBody strictly decodes a single JSON object request body.
func decodeBody(r *http.Request, v any) error {
	if decodeSlow.Fire() {
		sleep(decodeSlowDelay)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// buildRun validates a RunRequest and returns the closure that executes
// it through the runner's shared memo cache. A request naming a trace
// replays that ingested trace instead (buildTraceRun).
func (s *Server) buildRun(req RunRequest) (runFunc, error) {
	if req.Trace != "" {
		return s.buildTraceRun(req)
	}
	if req.App == "" {
		return nil, errors.New("missing app")
	}
	cfg, sc, label, err := runConfig(req)
	if err != nil {
		return nil, err
	}
	view := s.jobRunner(req.Records, req.Seed, nil)
	app := req.App
	return func(ctx context.Context, id string) (jobResult, error) {
		st, err := view(ctx, id).Run(app, cfg, sc)
		if err != nil {
			return jobResult{}, err
		}
		note := fmt.Sprintf("%s on %s, scenario %s", app, label, sc)
		return jobResult{tables: []*report.Table{summaryTable(st, note)}}, nil
	}, nil
}

// buildSweep validates a SweepRequest and returns the closure that runs
// the experiment; each lane persisted to the result store is journaled
// as a checkpoint under the job's ID, so a restart re-runs only the
// lanes with no digest on record.
func (s *Server) buildSweep(req SweepRequest) (runFunc, error) {
	e, err := exp.Lookup(req.Experiment)
	if err != nil {
		return nil, err
	}
	view := s.jobRunner(req.Records, req.Seed, req.Apps)
	return func(ctx context.Context, id string) (jobResult, error) {
		tables, err := e.Run(view(ctx, id))
		return jobResult{tables: tables}, err
	}, nil
}

// summaryTable renders one run's headline stats as the standard
// two-column summary, shared by app runs and trace replays.
func summaryTable(st sim.Stats, note string) *report.Table {
	t := &report.Table{
		Title:   "Run summary",
		Note:    note,
		Columns: []string{"metric", "value"},
	}
	t.AddRow("IPC", fmt.Sprintf("%.4f", st.IPC()))
	t.AddRow("instructions", fmt.Sprintf("%d", st.Core.Instructions))
	t.AddRow("cycles", fmt.Sprintf("%d", st.Core.Cycles))
	t.AddRow("l1_accesses", fmt.Sprintf("%d", st.L1.Accesses))
	t.AddRow("l1_hit_rate", fmt.Sprintf("%.4f", st.L1C.HitRate()))
	t.AddRow("fast_fraction", fmt.Sprintf("%.4f", st.L1.FastFraction()))
	t.AddRow("extra_access_rate", fmt.Sprintf("%.4f", st.L1.ExtraAccessRate()))
	t.AddRow("energy_j", fmt.Sprintf("%.4g", st.Energy.Total()))
	return t
}
