package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sipt/internal/cpu"
	"sipt/internal/fault"
	"sipt/internal/metrics"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// The ladder fault.Retry runs for RunShard: three in-place retries,
// each delay capped at 250 ms.
const (
	clientRetries = 3
	retryMaxDelay = 250 * time.Millisecond
)

// captureSleep replaces the fabric's sleep hook for the test, recording
// every backoff/poll delay instead of waiting.
func captureSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var (
		mu  sync.Mutex
		ds  []time.Duration
		old = sleep
	)
	sleep = func(d time.Duration) {
		mu.Lock()
		ds = append(ds, d)
		mu.Unlock()
	}
	t.Cleanup(func() { sleep = old })
	return &ds
}

// fakeWorker is a minimal in-memory worker daemon: it speaks just the
// shard slice of the siptd API and completes every shard instantly,
// stamping the stats with its name so tests can tell who served what.
type fakeWorker struct {
	t    *testing.T
	name string
	srv  *httptest.Server

	mu      sync.Mutex
	submits int                  // POST /v1/shard calls seen
	served  []TraceKey           // keys that produced a done shard
	views   map[string]ShardView // id -> terminal view

	// submitCode, when non-zero for the n-th submit (1-based), answers
	// that HTTP status instead of accepting the shard.
	submitCode func(n int) int
	// retryAfter, when set, stamps its value as the Retry-After header
	// on the n-th induced submit failure ("" leaves it off).
	retryAfter func(n int) string
	// terminal, when set, overrides the done view for a request.
	terminal func(req ShardRequest, id string) ShardView
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{t: t, name: name, views: make(map[string]ShardView)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard", w.handleSubmit)
	mux.HandleFunc("GET /v1/shards/{id}", w.handleGet)
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) base() string { return w.srv.URL }

func (w *fakeWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.submits++
	if w.submitCode != nil {
		if code := w.submitCode(w.submits); code != 0 {
			if w.retryAfter != nil {
				if v := w.retryAfter(w.submits); v != "" {
					rw.Header().Set("Retry-After", v)
				}
			}
			http.Error(rw, "induced failure", code)
			return
		}
	}
	id := fmt.Sprintf("%s-%d", w.name, w.submits)
	if w.terminal != nil {
		w.views[id] = w.terminal(req, id)
	} else {
		stats := make([]sim.Stats, len(req.Configs))
		for i := range stats {
			stats[i] = sim.Stats{App: w.name}
		}
		w.views[id] = ShardView{ID: id, Status: StatusDone, Stats: stats}
		w.served = append(w.served, req.Key())
	}
	rw.WriteHeader(http.StatusAccepted)
	json.NewEncoder(rw).Encode(map[string]string{"id": id}) //nolint:errcheck
}

func (w *fakeWorker) handleGet(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	v, ok := w.views[r.PathValue("id")]
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "no such shard", http.StatusNotFound)
		return
	}
	json.NewEncoder(rw).Encode(v) //nolint:errcheck
}

func (w *fakeWorker) submitCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.submits
}

func (w *fakeWorker) servedKeys() []TraceKey {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]TraceKey(nil), w.served...)
}

func renderMetrics(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func shardReq(app string) ShardRequest {
	return ShardRequest{
		App: app, Scenario: "normal", Seed: 1, Records: 2_000,
		Configs: []sim.Config{sim.Baseline(cpu.OOO())},
	}
}

// TestClientBackoffSchedule: transient submit failures retry in place
// on the doubling 10ms/20ms/40ms ladder, and OnRetry observes each one.
func TestClientBackoffSchedule(t *testing.T) {
	delays := captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.submitCode = func(n int) int {
		if n <= 3 {
			return http.StatusInternalServerError
		}
		return 0
	}
	c := NewClient(w.base(), nil, 0)
	retries := 0
	c.OnRetry = func() { retries++ }

	stats, err := c.RunShard(context.Background(), shardReq("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].App != "w0" {
		t.Fatalf("stats = %+v, want one stamped w0", stats)
	}
	if retries != 3 {
		t.Errorf("OnRetry fired %d times, want 3", retries)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(*delays) != len(want) {
		t.Fatalf("backoff sleeps = %v, want %v", *delays, want)
	}
	for i, d := range want {
		if (*delays)[i] != d {
			t.Errorf("backoff[%d] = %v, want %v", i, (*delays)[i], d)
		}
	}
}

// TestClientRetryAfter: a 429 carrying Retry-After overrides the
// backoff ladder with the server's own estimate, clamped to the
// ladder's 250ms cap; absent, malformed, or non-positive headers —
// and non-429 transients — fall back to the ladder unchanged.
func TestClientRetryAfter(t *testing.T) {
	ladder := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	cases := []struct {
		name       string
		code       int
		retryAfter string
		want       []time.Duration
	}{
		{
			name: "delta seconds clamped to ladder max",
			code: http.StatusTooManyRequests, retryAfter: "1",
			want: []time.Duration{retryMaxDelay, retryMaxDelay, retryMaxDelay},
		},
		{
			name: "huge value still clamped",
			code: http.StatusTooManyRequests, retryAfter: "3600",
			want: []time.Duration{retryMaxDelay, retryMaxDelay, retryMaxDelay},
		},
		{
			name: "429 without header uses ladder",
			code: http.StatusTooManyRequests, retryAfter: "",
			want: ladder,
		},
		{
			name: "http-date form ignored",
			code: http.StatusTooManyRequests, retryAfter: "Fri, 07 Aug 2026 00:00:00 GMT",
			want: ladder,
		},
		{
			name: "zero seconds ignored",
			code: http.StatusTooManyRequests, retryAfter: "0",
			want: ladder,
		},
		{
			name: "negative seconds ignored",
			code: http.StatusTooManyRequests, retryAfter: "-5",
			want: ladder,
		},
		{
			name: "503 ignores the header",
			code: http.StatusServiceUnavailable, retryAfter: "2",
			want: ladder,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delays := captureSleep(t)
			w := newFakeWorker(t, "w0")
			w.submitCode = func(n int) int {
				if n <= 3 {
					return tc.code
				}
				return 0
			}
			w.retryAfter = func(int) string { return tc.retryAfter }
			c := NewClient(w.base(), nil, 0)

			if _, err := c.RunShard(context.Background(), shardReq("mcf")); err != nil {
				t.Fatal(err)
			}
			if len(*delays) != len(tc.want) {
				t.Fatalf("backoff sleeps = %v, want %v", *delays, tc.want)
			}
			for i, d := range tc.want {
				if (*delays)[i] != d {
					t.Errorf("backoff[%d] = %v, want %v", i, (*delays)[i], d)
				}
			}
		})
	}
}

// TestClientExhaustsRetries: a worker that never recovers yields a
// transient error after the retry budget, so the coordinator can still
// re-route it.
func TestClientExhaustsRetries(t *testing.T) {
	captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.submitCode = func(int) int { return http.StatusInternalServerError }
	c := NewClient(w.base(), nil, 0)

	_, err := c.RunShard(context.Background(), shardReq("mcf"))
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if got := w.submitCount(); got != 1+clientRetries {
		t.Errorf("submits = %d, want %d", got, 1+clientRetries)
	}
}

// TestClientPermanentError: a 4xx protocol error is not retried and
// not marked transient — re-routing a malformed shard would just fail
// everywhere.
func TestClientPermanentError(t *testing.T) {
	delays := captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.submitCode = func(int) int { return http.StatusBadRequest }
	c := NewClient(w.base(), nil, 0)

	_, err := c.RunShard(context.Background(), shardReq("mcf"))
	if err == nil || fault.IsTransient(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if !fault.IsPermanent(err) {
		t.Errorf("err = %v, want the explicit Permanent class", err)
	}
	if got := w.submitCount(); got != 1 {
		t.Errorf("submits = %d, want 1 (no retry)", got)
	}
	if len(*delays) != 0 {
		t.Errorf("backoff sleeps = %v, want none", *delays)
	}
}

// TestClientFailedJobIsTransient: a worker-side job failure surfaces
// as transient (the job may succeed on a healthy worker), and a done
// shard with a mismatched stats count is a permanent protocol error.
func TestClientFailedJobIsTransient(t *testing.T) {
	captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.terminal = func(_ ShardRequest, id string) ShardView {
		return ShardView{ID: id, Status: StatusFailed, Error: "induced"}
	}
	c := NewClient(w.base(), nil, 0)
	_, err := c.RunShard(context.Background(), shardReq("mcf"))
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("failed job: err = %v, want transient", err)
	}

	w2 := newFakeWorker(t, "w1")
	w2.terminal = func(_ ShardRequest, id string) ShardView {
		return ShardView{ID: id, Status: StatusDone, Stats: []sim.Stats{{}, {}}}
	}
	c2 := NewClient(w2.base(), nil, 0)
	_, err = c2.RunShard(context.Background(), shardReq("mcf"))
	if err == nil || fault.IsTransient(err) {
		t.Fatalf("stats mismatch: err = %v, want permanent", err)
	}
	if !fault.IsPermanent(err) {
		t.Errorf("stats mismatch: err = %v, want the explicit Permanent class", err)
	}
}

// coordinatorOver builds a coordinator over the given fake workers with
// a fast poll and the given ejection threshold.
func coordinatorOver(reg *metrics.Registry, ejectAfter int, ws ...*fakeWorker) *Coordinator {
	bases := make([]string, len(ws))
	for i, w := range ws {
		bases[i] = w.base()
	}
	return NewCoordinator(Config{
		Workers:    bases,
		Registry:   reg,
		EjectAfter: ejectAfter,
		Poll:       time.Millisecond,
	})
}

// TestCoordinatorAffinity: every shard lands on its ring owner, and
// repeat dispatches of the same key hit the same worker — the property
// that keeps the workers' trace pools hot.
func TestCoordinatorAffinity(t *testing.T) {
	captureSleep(t)
	w0, w1, w2 := newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	c := coordinatorOver(nil, 0, w0, w1, w2)
	ring := NewRing([]string{w0.base(), w1.base(), w2.base()})
	byBase := map[string]*fakeWorker{w0.base(): w0, w1.base(): w1, w2.base(): w2}

	apps := []string{"mcf", "gcc", "lbm", "astar", "milc", "soplex", "bzip2", "namd"}
	for round := 0; round < 2; round++ {
		for _, app := range apps {
			stats, err := c.RunConfigs(context.Background(), app, vm.ScenarioNormal, 1, 2_000,
				[]sim.Config{sim.Baseline(cpu.OOO())})
			if err != nil {
				t.Fatal(err)
			}
			owner := ring.Lookup(TraceKey{App: app, Scenario: "normal", Seed: 1, Records: 2_000})
			if want := byBase[owner].name; stats[0].App != want {
				t.Errorf("round %d app %s: served by %s, ring owner is %s", round, app, stats[0].App, want)
			}
		}
	}
	// Each key's two rounds hit one worker: per-worker served lists hold
	// each of their keys exactly twice.
	total := 0
	for _, w := range byBase {
		seen := map[string]int{}
		for _, k := range w.servedKeys() {
			seen[k.String()]++
		}
		for k, n := range seen {
			if n != 2 {
				t.Errorf("worker %s served %s %d times, want 2", w.name, k, n)
			}
		}
		total += len(w.servedKeys())
	}
	if total != 2*len(apps) {
		t.Errorf("fleet served %d shards, want %d", total, 2*len(apps))
	}
}

// TestCoordinatorEjectAndReroute: a worker that keeps failing is
// charged per dispatch, ejected at the threshold, and its shards land
// on the survivor; the fabric metrics record the story.
func TestCoordinatorEjectAndReroute(t *testing.T) {
	captureSleep(t)
	reg := metrics.NewRegistry()
	good, bad := newFakeWorker(t, "good"), newFakeWorker(t, "bad")
	bad.submitCode = func(int) int { return http.StatusInternalServerError }
	c := coordinatorOver(reg, 2, good, bad)

	// Drive shards for keys owned by the failing worker until it is
	// ejected; every one must still succeed via the survivor.
	ring := NewRing([]string{good.base(), bad.base()})
	dispatched := 0
	for _, k := range gridKeys() {
		if ring.Lookup(k) != bad.base() {
			continue
		}
		sc, err := vm.ParseScenario(k.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.RunConfigs(context.Background(), k.App, sc, k.Seed, k.Records,
			[]sim.Config{sim.Baseline(cpu.OOO())})
		if err != nil {
			t.Fatal(err)
		}
		if stats[0].App != "good" {
			t.Fatalf("shard %s served by %q, want the survivor", k, stats[0].App)
		}
		if dispatched++; dispatched == 3 {
			break
		}
	}
	if dispatched != 3 {
		t.Fatalf("grid gave only %d keys owned by the failing worker", dispatched)
	}

	if live := c.Live(); len(live) != 1 || live[0] != good.base() {
		t.Errorf("Live = %v, want just the survivor", live)
	}
	// Dispatches 1 and 2 each charged the bad worker (ejected at 2);
	// dispatch 3 routed straight to the survivor.
	if got := bad.submitCount(); got != 2*(1+clientRetries) {
		t.Errorf("bad worker saw %d submits, want %d", got, 2*(1+clientRetries))
	}

	out := renderMetrics(t, reg)
	for _, want := range []string{
		"fabric_shards_total 3",
		"fabric_shards_rerouted_total 2",
		"fabric_worker_failures_total 2",
		"fabric_workers_ejected_total 1",
		"fabric_workers_live 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// stepClock replaces the fabric health clock with a manually stepped
// one and returns the step function.
func stepClock(t *testing.T) func(time.Duration) {
	t.Helper()
	var (
		mu  sync.Mutex
		at  = time.Unix(1_700_000_000, 0)
		old = now
	)
	now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return at
	}
	t.Cleanup(func() { now = old })
	return func(d time.Duration) {
		mu.Lock()
		at = at.Add(d)
		mu.Unlock()
	}
}

// TestCoordinatorHalfOpenProbe: an ejected worker earns a single probe
// dispatch after the cooldown — a failed probe re-ejects it instantly,
// a successful one re-admits it with its trace affinity intact.
func TestCoordinatorHalfOpenProbe(t *testing.T) {
	captureSleep(t)
	advance := stepClock(t)
	reg := metrics.NewRegistry()
	good, flaky := newFakeWorker(t, "good"), newFakeWorker(t, "flaky")
	var healed atomic.Bool
	flaky.submitCode = func(int) int {
		if healed.Load() {
			return 0
		}
		return http.StatusInternalServerError
	}
	c := coordinatorOver(reg, 1, good, flaky) // probeAfter: 30s

	// A key owned by the flaky worker, so every phase below starts its
	// routing there whenever the worker is in the ring.
	ring := NewRing([]string{good.base(), flaky.base()})
	var key TraceKey
	for _, k := range gridKeys() {
		if ring.Lookup(k) == flaky.base() {
			key = k
			break
		}
	}
	if key.App == "" {
		t.Fatal("grid gave no key owned by the flaky worker")
	}
	dispatch := func() string {
		t.Helper()
		sc, err := vm.ParseScenario(key.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.RunConfigs(context.Background(), key.App, sc, key.Seed, key.Records,
			[]sim.Config{sim.Baseline(cpu.OOO())})
		if err != nil {
			t.Fatal(err)
		}
		return stats[0].App
	}

	// Phase 1: the owner fails its dispatch and is ejected (EjectAfter
	// 1); the survivor serves the shard.
	if by := dispatch(); by != "good" {
		t.Fatalf("phase 1 served by %q, want the survivor", by)
	}
	if live := c.Live(); len(live) != 1 || live[0] != good.base() {
		t.Fatalf("phase 1 Live = %v, want just the survivor", live)
	}
	before := flaky.submitCount()

	// Phase 2: inside the cooldown no probe is granted — the ejected
	// worker sees no traffic at all.
	advance(29 * time.Second)
	if by := dispatch(); by != "good" {
		t.Fatalf("phase 2 served by %q, want the survivor", by)
	}
	if got := flaky.submitCount(); got != before {
		t.Errorf("phase 2: ejected worker saw %d submits during cooldown, want %d", got, before)
	}

	// Phase 3: cooldown over but the worker is still broken — the probe
	// dispatch fails once and re-ejects it; the shard still succeeds.
	advance(2 * time.Second)
	if by := dispatch(); by != "good" {
		t.Fatalf("phase 3 served by %q, want the survivor", by)
	}
	if got := flaky.submitCount(); got != before+1+clientRetries {
		t.Errorf("phase 3: probe cost %d submits, want %d (one dispatch)", got-before, 1+clientRetries)
	}
	if live := c.Live(); len(live) != 1 || live[0] != good.base() {
		t.Fatalf("phase 3 Live = %v, want the failed probe re-ejected", live)
	}

	// Phase 4: the worker heals; after another cooldown its probe
	// succeeds, it rejoins for good, and — affinity restored — it is
	// again the one serving its own key.
	healed.Store(true)
	advance(31 * time.Second)
	if by := dispatch(); by != "flaky" {
		t.Fatalf("phase 4 served by %q, want the healed owner", by)
	}
	if live := c.Live(); len(live) != 2 {
		t.Fatalf("phase 4 Live = %v, want both workers", live)
	}

	// Phase 5: membership is sticky — no further cooldown needed.
	if by := dispatch(); by != "flaky" {
		t.Fatalf("phase 5 served by %q, want the re-admitted owner", by)
	}

	out := renderMetrics(t, reg)
	for _, want := range []string{
		"fabric_workers_probed_total 2",
		"fabric_workers_revived_total 1",
		"fabric_workers_ejected_total 2",
		"fabric_workers_live 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestCoordinatorPermanentErrorFailsFast: a permanent protocol error is
// not re-routed — it would fail identically everywhere.
func TestCoordinatorPermanentErrorFailsFast(t *testing.T) {
	captureSleep(t)
	reg := metrics.NewRegistry()
	w0, w1 := newFakeWorker(t, "w0"), newFakeWorker(t, "w1")
	w0.submitCode = func(int) int { return http.StatusBadRequest }
	w1.submitCode = func(int) int { return http.StatusBadRequest }
	c := coordinatorOver(reg, 0, w0, w1)

	_, err := c.RunConfigs(context.Background(), "mcf", vm.ScenarioNormal, 1, 2_000,
		[]sim.Config{sim.Baseline(cpu.OOO())})
	if err == nil || fault.IsTransient(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if got := w0.submitCount() + w1.submitCount(); got != 1 {
		t.Errorf("fleet saw %d submits, want 1 (no re-route)", got)
	}
	if live := c.Live(); len(live) != 2 {
		t.Errorf("Live = %v, want both workers (no ejection on protocol errors)", live)
	}
	if out := renderMetrics(t, reg); !strings.Contains(out, "fabric_shards_failed_total 1") {
		t.Errorf("metrics missing fabric_shards_failed_total 1:\n%s", out)
	}
}

// TestCoordinatorAllEjected: once every worker is ejected the fabric
// reports ErrNoWorkers instead of spinning.
func TestCoordinatorAllEjected(t *testing.T) {
	captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.submitCode = func(int) int { return http.StatusInternalServerError }
	c := coordinatorOver(nil, 1, w)

	_, err := c.RunConfigs(context.Background(), "mcf", vm.ScenarioNormal, 1, 2_000,
		[]sim.Config{sim.Baseline(cpu.OOO())})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	// An all-ejected fleet is not a flake: the class tells callers not
	// to retry, and classifying must not hide ErrNoWorkers (above) or
	// change the message.
	if !fault.IsPermanent(err) {
		t.Errorf("err = %v, want the explicit Permanent class", err)
	}
	if live := c.Live(); len(live) != 0 {
		t.Errorf("Live = %v, want empty", live)
	}
}

// TestCoordinatorSweepCancelDoesNotCharge: when the sweep's own context
// ends mid-dispatch the shard returns that error and the worker keeps
// its health — a cancelled sweep says nothing about the fleet.
func TestCoordinatorSweepCancelDoesNotCharge(t *testing.T) {
	captureSleep(t)
	w := newFakeWorker(t, "w0")
	w.terminal = func(_ ShardRequest, id string) ShardView {
		return ShardView{ID: id, Status: StatusRunning} // never finishes
	}
	c := coordinatorOver(nil, 1, w)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.RunConfigs(ctx, "mcf", vm.ScenarioNormal, 1, 2_000,
		[]sim.Config{sim.Baseline(cpu.OOO())})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if live := c.Live(); len(live) != 1 {
		t.Errorf("Live = %v, want the worker still in the ring", live)
	}
}
