package fabric_test

// End-to-end fabric acceptance: a coordinator-backed runner must render
// every report byte-identically to the single-node path — the
// fabric's defining property — including under chaos (a worker killed
// mid-sweep, injected shard faults). External test package: serve
// imports fabric, so these tests sit outside the package to close the
// loop serve -> fabric -> serve without an import cycle.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fabric"
	"sipt/internal/fault"
	"sipt/internal/metrics"
	"sipt/internal/report"
	"sipt/internal/serve"
)

// fabricOpts is the shared experiment shape: short traces and two apps
// keep the distributed/local pair tractable, mirroring the replay
// versus live-generation equivalence gate.
func fabricOpts() exp.Options {
	return exp.Options{Records: 2_000, Seed: 1, Apps: []string{"libquantum", "gcc"}, Workers: 2}
}

// startWorker boots a real worker daemon — a serve.Server over its own
// runner — on an ephemeral port.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 256})
	s := serve.New(serve.Config{Runner: runner, Workers: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// renderAll runs one experiment and concatenates every rendered table,
// like the replay-versus-live gate's helper.
func renderAll(t *testing.T, e exp.Experiment, r *exp.Runner) string {
	t.Helper()
	tabs, err := e.Run(r)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestFabricMatchesSingleNode is the fabric equality gate: for a
// representative experiment subset (single-scenario sweeps, the
// scenario-sensitivity figure, an ablation, an extension, and a
// trace-analysis figure that never leaves the coordinator), a runner
// backed by a two-worker fleet renders byte-identically to a local
// single-node runner.
func TestFabricMatchesSingleNode(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	coord := fabric.NewCoordinator(fabric.Config{
		Workers: []string{w1.URL, w2.URL},
		Poll:    time.Millisecond,
	})
	opts := fabricOpts()
	remoteOpts := opts
	remoteOpts.Remote = coord

	local := exp.NewRunner(opts)
	distributed := exp.NewRunner(remoteOpts)
	for _, id := range []string{"fig2", "fig5", "fig6", "fig9", "fig13", "fig18", "abl-slow", "ext-coloring"} {
		e, err := exp.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			want := renderAll(t, e, local)
			got := renderAll(t, e, distributed)
			if got != want {
				t.Errorf("%s: distributed output differs from single-node.\n--- single-node ---\n%s\n--- distributed ---\n%s",
					id, want, got)
			}
		})
	}
	if len(coord.Live()) != 2 {
		t.Errorf("Live = %v, want both workers after a healthy sweep", coord.Live())
	}
}

// postJSON/waitJob drive the coordinator daemon's public sweep API.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func waitJob(t *testing.T, base, id string, timeout time.Duration) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v serve.JobView
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

// sweepTables submits one sweep to the coordinator daemon and returns
// the finished job's view.
func sweepTables(t *testing.T, base, experiment string, apps []string) serve.JobView {
	t.Helper()
	quoted := make([]string, len(apps))
	for i, a := range apps {
		quoted[i] = `"` + a + `"`
	}
	code, body := postJSON(t, base+"/v1/sweep",
		`{"experiment":"`+experiment+`","apps":[`+strings.Join(quoted, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d (%s)", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, base, sub.ID, 120*time.Second)
	if v.Status != serve.StatusDone {
		t.Fatalf("sweep %s: %s (%s)", experiment, v.Status, v.Error)
	}
	return v
}

// renderJSON pins a table set to the API's canonical bytes.
func renderJSON(t *testing.T, tabs []*report.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := report.RenderJSON(&b, tabs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestChaosWorkerKilledMidSweep is the fabric's chaos acceptance test:
// a two-worker fleet serves one full sweep, then one worker dies (every
// request answers 503, the HTTP shape of a killed daemon) while a
// second sweep is in flight. The coordinator must retry, eject the dead
// worker, re-route its shards to the survivor, keep the daemon's job
// IDs dense, and still produce a byte-identical report.
func TestChaosWorkerKilledMidSweep(t *testing.T) {
	healthy := startWorker(t)

	// The doomed worker: a real daemon behind a kill switch. Once
	// tripped — armed, then one more shard accepted — every subsequent
	// request is refused.
	inner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 256})
	is := serve.New(serve.Config{Runner: inner, Workers: 2})
	var armed, killed atomic.Bool
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			http.Error(w, "daemon killed", http.StatusServiceUnavailable)
			return
		}
		if armed.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/shard" {
			killed.Store(true)
			http.Error(w, "daemon killed", http.StatusServiceUnavailable)
			return
		}
		is.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		doomed.Close()
		is.Close()
	})

	reg := metrics.NewRegistry()
	coord := fabric.NewCoordinator(fabric.Config{
		Workers:    []string{healthy.URL, doomed.URL},
		Registry:   reg,
		Poll:       time.Millisecond,
		EjectAfter: 1, // a killed daemon is gone; don't keep probing it
	})
	remoteOpts := fabricOpts()
	remoteOpts.Remote = coord

	// The coordinator daemon itself: shards disabled, sweeps fan out to
	// the fleet.
	cs := serve.New(serve.Config{
		Runner:        exp.NewRunner(remoteOpts),
		Workers:       2,
		DisableShards: true,
	})
	cts := httptest.NewServer(cs)
	t.Cleanup(func() {
		cts.Close()
		cs.Close()
	})

	// Sweep 1: both workers healthy. fig6 keeps it cheap.
	v1 := sweepTables(t, cts.URL, "fig6", fabricOpts().Apps)
	if v1.ID != "job-1" {
		t.Fatalf("first sweep ID = %s, want job-1", v1.ID)
	}

	// Kill the worker, then sweep the scenario-sensitivity figure over
	// four apps: a 16-key grid (4 apps × 4 scenarios), so the dead
	// worker owns shards that must be re-routed.
	armed.Store(true)
	wideApps := []string{"libquantum", "gcc", "mcf", "lbm"}
	v2 := sweepTables(t, cts.URL, "fig18", wideApps)
	if v2.ID != "job-2" {
		t.Errorf("second sweep ID = %s, want job-2 (dense admission order)", v2.ID)
	}
	if !killed.Load() {
		t.Fatal("kill switch never tripped: the dead worker received no shard")
	}

	// The merged reports must be byte-identical to a single-node run.
	wideOpts := fabricOpts()
	wideOpts.Apps = wideApps
	for _, sweep := range []struct {
		id   string
		opts exp.Options
		view serve.JobView
	}{{"fig6", fabricOpts(), v1}, {"fig18", wideOpts, v2}} {
		e, err := exp.Lookup(sweep.id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(exp.NewRunner(sweep.opts))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderJSON(t, sweep.view.Tables), renderJSON(t, want)) {
			t.Errorf("%s: merged report differs from single-node run", sweep.id)
		}
	}

	// The fleet's story: the dead worker was ejected and its shards
	// re-routed to the survivor.
	if live := coord.Live(); len(live) != 1 || live[0] != healthy.URL {
		t.Errorf("Live = %v, want just the healthy worker", live)
	}
	var m strings.Builder
	if _, err := reg.WriteTo(&m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fabric_workers_ejected_total 1", "fabric_workers_live 1"} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, m.String())
		}
	}
	if !strings.Contains(m.String(), "fabric_shards_rerouted_total") ||
		strings.Contains(m.String(), "fabric_shards_rerouted_total 0") {
		t.Errorf("no shards re-routed:\n%s", m.String())
	}
}

// TestChaosShardFaultInjection: with the fabric.shard.err point armed at
// a high rate, injected transient dispatch failures are absorbed by the
// in-place retry/re-route machinery and the merged report still matches
// the single-node run exactly.
func TestChaosShardFaultInjection(t *testing.T) {
	spec, err := fault.ParseSpec("fabric.shard.err:1/3")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 7); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	w1, w2 := startWorker(t), startWorker(t)
	coord := fabric.NewCoordinator(fabric.Config{
		Workers:  []string{w1.URL, w2.URL},
		Poll:     time.Millisecond,
		Registry: metrics.NewRegistry(),
	})
	remoteOpts := fabricOpts()
	remoteOpts.Remote = coord

	e, err := exp.Lookup("fig18")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, e, exp.NewRunner(remoteOpts))

	fault.Disarm() // the local reference run takes no injected faults
	want := renderAll(t, e, exp.NewRunner(fabricOpts()))
	if got != want {
		t.Errorf("report under injected shard faults differs from single-node.\n--- single-node ---\n%s\n--- injected ---\n%s",
			want, got)
	}
}
