package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/exp"
	"sipt/internal/replay"
	"sipt/internal/serve"
	"sipt/internal/sim"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// serveApps is the app rotation of both serve workloads: the four
// kernel apps plus four with larger footprints, so jobs differ in
// trace size and simulation cost.
var serveApps = []string{"libquantum", "calculix", "h264ref", "ycsb", "mcf", "gcc", "omnetpp", "povray"}

// coldChecked is how many serve-cold jobs (the first by index) are
// checked against a direct experiment run.
const coldChecked = 4

// coldEnv is the serve-cold workload: every job is a Fig. 13 sweep on
// a seed no earlier job used, so each one materialises its traces,
// simulates, writes result and trace blobs, and journals its lanes.
type coldEnv struct {
	d       *daemon
	records uint64
	seed    int64
}

func newColdEnv(ctx context.Context, c *config) (env, error) {
	dir, err := os.MkdirTemp(c.work, "serve-cold-")
	if err != nil {
		return nil, err
	}
	d, err := openDaemon(dir, c.seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &coldEnv{d: d, records: c.size.coldRecords, seed: c.seed}
	// Warm-up: one sweep on a seed no timed job uses, so the heap, the
	// worker goroutines and the connections are live before timing while
	// every timed job still starts cold.
	warm := e.request(0)
	warm.Seed--
	ls, _ := closedLoop(ctx, d.client, func(int) jobSpec { return jobSpec{path: "/v1/sweep", body: warm} },
		time.Millisecond, func(k int, _ time.Duration) bool { return k < 1 }, func(int) bool { return false }, nil)
	if ls.done != 1 {
		e.close()
		return nil, fmt.Errorf("serve-cold warm-up: %s", strings.Join(ls.errs, "; "))
	}
	return e, nil
}

func (e *coldEnv) request(k int) serve.SweepRequest {
	n := len(serveApps)
	return serve.SweepRequest{
		Experiment: "fig13",
		Apps:       []string{serveApps[(2*k)%n], serveApps[(2*k+1)%n]},
		Records:    e.records,
		Seed:       e.seed*1_000_000 + int64(k) + 1,
	}
}

func (e *coldEnv) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	spec := func(k int) jobSpec { return jobSpec{path: "/v1/sweep", body: e.request(k), key: k} }
	return servePhase(ctx, e.d, spec, time.Millisecond, d, func(key int) bool { return key < coldChecked }, tr)
}

// verify re-runs the first jobs' sweeps directly through exp and
// requires the served tables to match.
func (e *coldEnv) verify(ctx context.Context, _ *config, p *phaseResult) []check {
	var checks []check
	for k := 0; k < coldChecked; k++ {
		views := p.views[k]
		if len(views) == 0 {
			continue
		}
		req := e.request(k)
		r := exp.NewRunner(exp.Options{Records: req.Records, Seed: req.Seed, Apps: req.Apps, Workers: 1})
		want, err := runExps(r.WithContext(ctx), []string{req.Experiment}, nil, 0)
		got, rerr := renderTables(views[0].Tables)
		if rerr != nil {
			got = ""
		}
		checks = append(checks, compareOutput(fmt.Sprintf("serve-cold job %d equals a direct fig13 run", k), got, want, err))
	}
	if len(checks) == 0 {
		checks = append(checks, failCheck("serve-cold jobs checked", "no job completed"))
	}
	return checks
}

func (e *coldEnv) layerInput() layerInput {
	req := e.request(0)
	return layerInput{apps: req.Apps, seed: req.Seed, records: req.Records, blobs: storeBlobs(e.d)}
}

func (e *coldEnv) close() error {
	err := e.d.close()
	if rerr := os.RemoveAll(e.d.dir); err == nil {
		err = rerr
	}
	return err
}

// warmTrace is one trace file the serve-warm set-up uploads.
type warmTrace struct {
	app    string
	digest string
	buf    *replay.Buffer
}

// warmEnv is the serve-warm workload: a fixed request set primed in one
// daemon, served by a second daemon over the same directories, so every
// job is answered from the memo cache or the store.
type warmEnv struct {
	d       *daemon
	records uint64
	seed    int64
	traces  []warmTrace
	reqs    []jobSpec
	order   []int
}

// The warm request set: every serve app in every L1 mode, every
// uploaded trace in every speculating mode, and one sweep.
var (
	warmRunModes   = []string{"vipt", "ideal", "naive", "bypass", "combined"}
	warmTraceModes = []string{"ideal", "naive", "bypass", "combined"}
	warmTraceApps  = serveApps[:2]
)

func newWarmEnv(ctx context.Context, c *config) (env, error) {
	dir, err := os.MkdirTemp(c.work, "serve-warm-")
	if err != nil {
		return nil, err
	}
	e := &warmEnv{records: c.size.warmRecords, seed: c.seed}
	if err := e.prime(ctx, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// A second daemon over the same directories: journal replay and the
	// store index rebuild are part of set-up.
	if e.d, err = openDaemon(dir, c.seed); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.order = rand.New(rand.NewSource(c.seed)).Perm(len(e.reqs))
	return e, nil
}

// prime uploads the traces and runs every request once in a first
// daemon, then drains it.
func (e *warmEnv) prime(ctx context.Context, dir string) error {
	a, err := openDaemon(dir, e.seed)
	if err != nil {
		return err
	}
	err = e.primeOn(ctx, a)
	if cerr := a.close(); err == nil {
		err = cerr
	}
	return err
}

func (e *warmEnv) primeOn(ctx context.Context, a *daemon) error {
	for _, app := range warmTraceApps {
		t, err := uploadTrace(ctx, a.client, app, e.seed, e.records)
		if err != nil {
			return err
		}
		e.traces = append(e.traces, t)
	}
	for _, app := range serveApps {
		for _, mode := range warmRunModes {
			e.add("/v1/run", serve.RunRequest{App: app, Mode: mode, Records: e.records, Seed: e.seed})
		}
	}
	for _, t := range e.traces {
		for _, mode := range warmTraceModes {
			e.add("/v1/run", serve.RunRequest{Trace: t.digest, Mode: mode, Seed: e.seed})
		}
	}
	e.add("/v1/sweep", serve.SweepRequest{Experiment: "fig13", Apps: warmTraceApps, Records: e.records, Seed: e.seed})
	ls, _ := closedLoop(ctx, a.client, func(k int) jobSpec { return e.reqs[k] }, 200*time.Microsecond,
		func(k int, _ time.Duration) bool { return k < len(e.reqs) }, func(int) bool { return false }, nil)
	if ls.failed > 0 || ls.done != len(e.reqs) {
		return fmt.Errorf("priming: %d of %d jobs done: %s", ls.done, len(e.reqs), strings.Join(ls.errs, "; "))
	}
	return nil
}

func (e *warmEnv) add(path string, body any) {
	e.reqs = append(e.reqs, jobSpec{path: path, body: body, key: len(e.reqs)})
}

// uploadTrace materialises app's trace, encodes it as a trace file and
// ingests it through POST /v1/traces.
func uploadTrace(ctx context.Context, c *client, app string, seed int64, records uint64) (warmTrace, error) {
	prof, err := workload.Lookup(app)
	if err != nil {
		return warmTrace{}, err
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, seed, records)
	if err != nil {
		return warmTrace{}, err
	}
	blob, err := tracefile.Encode(tracefile.Meta{App: app, Scenario: vm.ScenarioNormal, Seed: seed, Records: records}, buf)
	if err != nil {
		return warmTrace{}, err
	}
	code, body, err := c.do(ctx, http.MethodPost, "/v1/traces", blob)
	if err != nil || code != http.StatusCreated {
		return warmTrace{}, fmt.Errorf("uploading %s trace: %d %v %s", app, code, err, body)
	}
	var info serve.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return warmTrace{}, fmt.Errorf("uploading %s trace: %w", app, err)
	}
	return warmTrace{app: app, digest: info.Digest, buf: buf}, nil
}

func (e *warmEnv) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	spec := func(k int) jobSpec { return e.reqs[e.order[k%len(e.order)]] }
	return servePhase(ctx, e.d, spec, 200*time.Microsecond, d, func(int) bool { return true }, tr)
}

// verify checks every distinct request's served tables (the first each
// client saw) against the same computation done directly.
func (e *warmEnv) verify(ctx context.Context, _ *config, p *phaseResult) []check {
	r := exp.NewRunner(exp.Options{Records: e.records, Seed: e.seed, Workers: 1}).WithContext(ctx)
	var checks []check
	seen := 0
	for _, js := range e.reqs {
		views := p.views[js.key]
		if len(views) == 0 {
			continue
		}
		seen++
		want, err := e.expected(ctx, r, js)
		for _, v := range views {
			got, rerr := renderTables(v.Tables)
			if rerr != nil {
				got = ""
			}
			if c := compareOutput("serve-warm served tables equal direct runs", got, want, err); !c.OK {
				c.Detail = fmt.Sprintf("request %d: %s", js.key, c.Detail)
				checks = append(checks, c)
			}
		}
	}
	if seen == 0 {
		return []check{failCheck("serve-warm requests checked", "no job completed")}
	}
	if len(checks) == 0 {
		checks = append(checks, pass(fmt.Sprintf("serve-warm served tables equal direct runs (%d requests)", seen)))
	}
	return checks
}

// expected renders what request js must serve, computed without the
// daemon: the experiment for a sweep, the run summary for a run.
func (e *warmEnv) expected(ctx context.Context, r *exp.Runner, js jobSpec) (string, error) {
	switch req := js.body.(type) {
	case serve.SweepRequest:
		return runExps(exp.NewRunner(exp.Options{Records: req.Records, Seed: req.Seed, Apps: req.Apps, Workers: 1}).WithContext(ctx),
			[]string{req.Experiment}, nil, 0)
	case serve.RunRequest:
		mode, err := core.ParseMode(req.Mode)
		if err != nil {
			return "", err
		}
		cfg := sim.SIPT(cpu.OOO(), 32, 2, mode)
		label := fmt.Sprintf("%s %s", cfg.Label(), cpu.OOO().Name)
		if req.Trace == "" {
			st, err := r.Run(req.App, cfg, vm.ScenarioNormal)
			note := fmt.Sprintf("%s on %s, scenario %s", req.App, label, vm.ScenarioNormal)
			return summary(st, note, err)
		}
		for _, t := range e.traces {
			if t.digest == req.Trace {
				st, err := sim.RunBuffer(ctx, t.app, t.buf, cfg, e.seed)
				note := fmt.Sprintf("trace %.12s (%s/%s, %d records) on %s",
					t.digest, t.app, vm.ScenarioNormal, t.buf.Len(), label)
				return summary(st, note, err)
			}
		}
		return "", fmt.Errorf("unknown trace %s", req.Trace)
	}
	return "", fmt.Errorf("unknown request %T", js.body)
}

func (e *warmEnv) layerInput() layerInput {
	return layerInput{apps: warmTraceApps, seed: e.seed, records: e.records, blobs: storeBlobs(e.d)}
}

func (e *warmEnv) close() error {
	err := e.d.close()
	if rerr := os.RemoveAll(e.d.dir); err == nil {
		err = rerr
	}
	return err
}

// storeBlobs copies up to maxLayerBlobs blobs out of a daemon's result
// store, for the layer pass's store timings.
func storeBlobs(d *daemon) [][]byte {
	var out [][]byte
	for _, k := range d.results.Keys() {
		if len(out) == maxLayerBlobs {
			break
		}
		if b, err := d.results.Get(k); err == nil {
			out = append(out, b)
		}
	}
	return out
}
