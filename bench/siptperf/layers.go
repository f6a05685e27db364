package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"sipt/internal/cache"
	"sipt/internal/cacti"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/exp"
	"sipt/internal/journal"
	"sipt/internal/memaddr"
	"sipt/internal/predictor"
	"sipt/internal/replay"
	"sipt/internal/sched"
	"sipt/internal/serve"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/tlb"
	"sipt/internal/trace"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// layerInput names the records the layer pass replays: the workload's
// own traces, regenerated from (app, seed, records). blobs, when set,
// are copied out of the workload's result store for the store timings.
type layerInput struct {
	apps    []string
	seed    int64
	records uint64
	blobs   [][]byte
}

const (
	// maxLayerRecords caps the decoded records the per-structure
	// batches replay (about 12 MB of trace.Record), enough to run every
	// structure well past its warm-up.
	maxLayerRecords = 256 << 10
	// minBatch is how long a cheap batch repeats, so per-call costs of
	// 5-50 ns are averaged over enough calls to be stable (shortBatch
	// under -short).
	minBatch   = 100 * time.Millisecond
	shortBatch = 10 * time.Millisecond
	// maxLayerBlobs bounds the blobs the store timings write.
	maxLayerBlobs = 16
	// mixLayerRecords caps the per-core trace of the RunMix batch.
	mixLayerRecords = 25_000
	// Sample counts of the serving-layer micro-batches.
	journalSyncAppends  = 100
	journalAsyncAppends = 1000
	schedHandoffs       = 2000
	storeGetRounds      = 8
	probeJobs           = 200
	probeRecords        = 20_000
)

// sink keeps batch results observable so no measured call is dead code.
var sink uint64

// fixedMem is the stub memory system behind cpu.step_ns: every access
// takes the same latency, so the batch times the core's timing loop
// alone.
type fixedMem struct{ lat int }

func (m fixedMem) Access(*trace.Record, uint64) cpu.MemResult { return cpu.MemResult{Latency: m.lat} }

// layerRun is one layer pass: batches of calls into each layer's public
// functions over the workload's records, each batch one layer.<name>
// span. Per-call costs are batch totals divided by calls.
type layerRun struct {
	ctx   context.Context
	c     *config
	in    layerInput
	out   map[string]metric
	bufs  []*replay.Buffer
	encs  [][]byte
	recs  []trace.Record
	batch time.Duration // how long a cheap batch repeats
	genNS float64       // workload.generate_ns, reused for the RunMix share
	fused time.Duration
}

// layerPass measures every layer metric not already in have (values the
// traced phase measured itself). When have carries no serving metrics —
// the workload does not serve — a short closed loop on a fresh daemon
// supplies them.
func layerPass(ctx context.Context, c *config, in layerInput, have map[string]metric, tr *tracer) (map[string]metric, error) {
	l := &layerRun{ctx: ctx, c: c, in: in, out: map[string]metric{}, batch: minBatch}
	if c.short {
		l.batch = shortBatch
	}
	for k, v := range have {
		l.out[k] = v
	}
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"materialize", l.materialize},
		{"decode", l.decode},
		{"generate", l.generate},
		{"cpu", l.cpuStep},
		{"core", l.coreL1},
		{"cache", l.cacheAccess},
		{"tlb", l.tlbTranslate},
		{"dram", l.dramAccess},
		{"predictor", l.predictors},
		{"sim", l.simRuns},
		{"exp", l.harness},
		{"mix", l.runMix},
		{"tracefile", l.tracefileRead},
		{"store", l.storeOps},
		{"journal", l.journalAppends},
		{"sched", l.schedHandoff},
	}
	if _, ok := have["serve.admit_ms_p50"]; !ok {
		steps = append(steps, step{"serve", func() error { return l.serveProbe(tr) }})
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := tr.begin("layer."+s.name, 0, "")
		err := s.fn()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", s.name, err)
		}
	}
	for _, d := range layerDefs {
		m, ok := l.out[d.name]
		if !ok {
			return nil, fmt.Errorf("layer pass did not measure %s", d.name)
		}
		m.Unit = d.unit
		l.out[d.name] = m
	}
	return l.out, nil
}

func (l *layerRun) set(name string, v float64) { l.out[name] = metric{Value: v} }

// perCall returns ns per call of a batch: fn runs repeatedly until the
// batch time has elapsed and reports how many calls each run made.
func (l *layerRun) perCall(fn func() int) float64 {
	var calls int
	start := time.Now()
	for calls == 0 || time.Since(start) < l.batch {
		calls += fn()
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(calls))
}

func nsPer(d time.Duration, n float64) float64 { return ratio(float64(d.Nanoseconds()), n) }

func (l *layerRun) materialize() error {
	var total time.Duration
	for _, app := range l.in.apps {
		prof, err := workload.Lookup(app)
		if err != nil {
			return err
		}
		t0 := time.Now()
		buf, err := sim.Materialize(prof, vm.ScenarioNormal, l.in.seed, l.in.records)
		total += time.Since(t0)
		if err != nil {
			return err
		}
		l.bufs = append(l.bufs, buf)
	}
	l.set("sim.materialize_ns", nsPer(total, float64(len(l.bufs))*float64(l.in.records)))

	// The per-structure batches replay decoded records, an equal share
	// from each trace.
	per := maxLayerRecords / len(l.bufs)
	var rec trace.Record
	for _, b := range l.bufs {
		cur := b.Cursor()
		for i := 0; i < per && cur.NextInto(&rec) == nil; i++ {
			l.recs = append(l.recs, rec)
		}
	}
	return nil
}

func (l *layerRun) decode() error {
	l.set("replay.decode_ns", l.perCall(func() int {
		n := 0
		var rec trace.Record
		for _, b := range l.bufs {
			cur := b.Cursor()
			for cur.NextInto(&rec) == nil {
				sink += rec.PC
				n++
			}
		}
		return n
	}))
	return nil
}

// generate times the live generator's record loop (construction of the
// system and generator excluded).
func (l *layerRun) generate() error {
	var loop time.Duration
	var n int
	var rec trace.Record
	for n == 0 || loop < l.batch {
		for _, app := range l.in.apps {
			prof, err := workload.Lookup(app)
			if err != nil {
				return err
			}
			gen, err := workload.NewGenerator(prof, sim.NewSystem(vm.ScenarioNormal, l.in.seed, prof), l.in.seed, l.in.records)
			if err != nil {
				return err
			}
			t0 := time.Now()
			for gen.NextInto(&rec) == nil {
				n++
			}
			loop += time.Since(t0)
			sink += rec.PC
		}
	}
	l.genNS = nsPer(loop, float64(n))
	l.set("workload.generate_ns", l.genNS)
	return nil
}

func (l *layerRun) cpuStep() error {
	l.set("cpu.step_ns", l.perCall(func() int {
		c := cpu.NewCore(cpu.OOO(), fixedMem{lat: 4})
		for i := range l.recs {
			c.StepPtr(&l.recs[i])
		}
		sink += c.Cycles()
		return len(l.recs)
	}))
	return nil
}

// coreL1 drives the SIPT L1 (headline 32 KiB 2-way, SIPT+IDB) with
// every record, filling on misses as the hierarchy does.
func (l *layerRun) coreL1() error {
	cfg := core.Config{
		Cache: cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
			LatencyCycles: cacti.Params(32, 2, sim.FreqGHz).LatencyCycles},
		Mode:       core.ModeCombined,
		TLBLatency: tlb.Default().L1Latency,
		Seed:       l.in.seed,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var st core.Stats
	l.set("core.l1_access_ns", l.perCall(func() int {
		l1 := core.New(cfg)
		var res core.Result
		for i := range l.recs {
			r := &l.recs[i]
			l1.AccessInto(&res, r.PC, r.VA, r.PA, r.IsStore())
			if !res.Hit {
				l1.Fill(r.PA, r.IsStore())
			}
		}
		st = l1.Stats()
		return len(l.recs)
	}))
	l.set("core.fast_ratio", st.FastFraction())
	l.set("core.extra_per_access", st.ExtraAccessRate())
	return nil
}

// cacheAccess drives the baseline L1 geometry (32 KiB 8-way) as a
// plain physically indexed cache.
func (l *layerRun) cacheAccess() error {
	cfg := cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 4}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var st cache.Stats
	l.set("cache.access_ns", l.perCall(func() int {
		c := cache.New(cfg)
		for i := range l.recs {
			r := &l.recs[i]
			if !c.Access(r.PA, r.IsStore()).Hit {
				c.Fill(r.PA, r.IsStore())
			}
		}
		st = c.Stats()
		return len(l.recs)
	}))
	l.set("cache.hit_ratio", st.HitRate())
	return nil
}

func (l *layerRun) tlbTranslate() error {
	var st tlb.Stats
	l.set("tlb.translate_ns", l.perCall(func() int {
		t := tlb.New(tlb.Default())
		for i := range l.recs {
			sink += uint64(t.Translate(l.recs[i].VA, l.recs[i].Huge()).Penalty)
		}
		st = t.Stats()
		return len(l.recs)
	}))
	l.set("tlb.hit_ratio", ratio(float64(st.L1Hits), float64(st.Lookups)))
	return nil
}

// dramAccess sends every record's line to DRAM, advancing time by the
// record's instruction count.
func (l *layerRun) dramAccess() error {
	l.set("dram.access_ns", l.perCall(func() int {
		d := dram.New(dram.Default())
		var now uint64
		for i := range l.recs {
			r := &l.recs[i]
			sink += uint64(d.Access(r.PA, r.IsStore(), now))
			now += r.Instructions()
		}
		return len(l.recs)
	}))
	return nil
}

// predictors runs the bypass perceptron and the IDB the way the SIPT+IDB
// flow does for two speculative bits: predict, then train on the true
// outcome.
func (l *layerRun) predictors() error {
	const bits = 2
	var pst predictor.PerceptronStats
	l.set("predictor.perceptron_ns", l.perCall(func() int {
		p := predictor.NewPerceptron()
		for i := range l.recs {
			r := &l.recs[i]
			pred := p.Predict(r.PC)
			p.Train(r.PC, pred, memaddr.BitsUnchanged(r.VA, r.PA, bits))
		}
		pst = p.Stats()
		return len(l.recs)
	}))
	l.set("predictor.perceptron_accuracy", pst.Accuracy())

	var ist predictor.IDBStats
	l.set("predictor.idb_ns", l.perCall(func() int {
		idb := predictor.NewIDB(bits, false, l.in.seed)
		for i := range l.recs {
			r := &l.recs[i]
			page := uint64(r.VA.PageNum())
			delta, ok := idb.Predict(r.PC, page)
			if !ok {
				delta = 0
			}
			correct := memaddr.ApplyDelta(r.VA, delta, bits) == memaddr.IndexBitsPA(r.PA, bits)
			idb.Train(r.PC, page, memaddr.IndexDelta(r.VA, r.PA, bits), ok, correct)
		}
		ist = idb.Stats()
		return len(l.recs)
	}))
	l.set("predictor.idb_accuracy", ist.HitRate())
	return nil
}

// kernelLanes are the config groups one kernel-sweep rep simulates per
// app, one sim.RunConfigs call each (see kernelExps).
func kernelLanes() [][]sim.Config {
	base := sim.Baseline(cpu.OOO())
	ideal := sim.SIPT(cpu.OOO(), 32, 2, core.ModeIdeal)
	return [][]sim.Config{
		{base, sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive), ideal},
		{sim.SIPT(cpu.OOO(), 32, 4, core.ModeBypass), sim.SIPT(cpu.OOO(), 32, 2, core.ModeBypass),
			sim.SIPT(cpu.OOO(), 128, 4, core.ModeBypass)},
		{sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)},
	}
}

// simRuns times the kernel lanes fused (sim.RunConfigs, one call per
// group) and solo (sim.RunBuffer per lane) over every trace.
func (l *layerRun) simRuns() error {
	var solo time.Duration
	var laneRecs, calls, allocs float64
	var m0, m1 runtime.MemStats
	for i, buf := range l.bufs {
		app := l.in.apps[i]
		for _, group := range kernelLanes() {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			_, err := sim.RunConfigs(l.ctx, app, buf, group, l.in.seed)
			l.fused += time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			calls++
			allocs += float64(m1.Mallocs - m0.Mallocs)
			laneRecs += float64(len(group) * buf.Len())
			for _, cfg := range group {
				t0 := time.Now()
				_, err := sim.RunBuffer(l.ctx, app, buf, cfg, l.in.seed)
				solo += time.Since(t0)
				if err != nil {
					return err
				}
			}
		}
	}
	l.set("sim.run_configs_ns", nsPer(l.fused, laneRecs))
	l.set("sim.run_buffer_ns", nsPer(solo, laneRecs))
	l.set("sim.run_configs_allocs", ratio(allocs, calls))
	l.set("sim.fusion_gain", ratio(float64(solo), float64(l.fused)))
	return nil
}

// harness compares the experiment layer with the kernel it drives: one
// Figs. 6/9/13 pass on a fresh memo cache over a warm trace pool,
// against the direct sim.RunConfigs time for the same lanes.
func (l *layerRun) harness() error {
	r := exp.NewRunner(exp.Options{Records: l.in.records, Seed: l.in.seed, Apps: l.in.apps, Workers: 1})
	if _, err := exp.Fig5(r); err != nil {
		return err
	}
	t0 := time.Now()
	_, err := runExps(r.WithFreshCache().WithContext(l.ctx), kernelExps, nil, 0)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	l.set("exp.harness_share", 1-ratio(float64(l.fused), float64(d)))
	return nil
}

// runMix times the coupled quad-core interleave on Tab. III's first
// mix, and the share of it the live generators account for.
func (l *layerRun) runMix() error {
	perCore := min(l.in.records, mixLayerRecords)
	t0 := time.Now()
	ms, err := sim.RunMix(l.ctx, workload.Mixes()[0], sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, l.in.seed, perCore)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	var consumed float64
	for _, n := range ms.Consumed {
		consumed += float64(n)
	}
	l.set("sim.run_mix_ns", nsPer(d, consumed))
	l.set("sim.run_mix_gen_share", ratio(l.genNS*consumed, float64(d.Nanoseconds())))
	return nil
}

func (l *layerRun) tracefileRead() error {
	for i, buf := range l.bufs {
		enc, err := tracefile.Encode(tracefile.Meta{App: l.in.apps[i], Scenario: vm.ScenarioNormal,
			Seed: l.in.seed, Records: uint64(buf.Len())}, buf)
		if err != nil {
			return err
		}
		l.encs = append(l.encs, enc)
	}
	var rerr error
	l.set("tracefile.read_ns", l.perCall(func() int {
		n := 0
		for _, enc := range l.encs {
			_, buf, err := tracefile.ReadBuffer(bytes.NewReader(enc))
			if err != nil {
				rerr = err
				return 1
			}
			n += buf.Len()
		}
		return n
	}))
	return rerr
}

// storeOps writes the workload's blobs into a fresh store (one fsynced
// Put each) and reads them back.
func (l *layerRun) storeOps() error {
	blobs := l.in.blobs
	if len(blobs) == 0 {
		blobs = l.encs
	}
	if len(blobs) > maxLayerBlobs {
		blobs = blobs[:maxLayerBlobs]
	}
	dir, err := os.MkdirTemp(l.c.work, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	var puts, gets []float64
	keys := make([]store.Key, len(blobs))
	for i, b := range blobs {
		keys[i] = store.KeyOf("siptperf", "layer", strconv.Itoa(i))
		t0 := time.Now()
		if err := s.Put(keys[i], b); err != nil {
			return err
		}
		puts = append(puts, usSince(t0))
	}
	for round := 0; round < storeGetRounds; round++ {
		for _, k := range keys {
			t0 := time.Now()
			b, err := s.Get(k)
			if err != nil {
				return err
			}
			gets = append(gets, usSince(t0))
			sink += uint64(len(b))
		}
	}
	l.out["store.put_us_p50"] = distribution(puts, "")
	l.out["store.get_us_p50"] = distribution(gets, "")
	return nil
}

// journalAppends appends admission-shaped records with fsync and
// lane-shaped records without, in a fresh journal.
func (l *layerRun) journalAppends() error {
	dir, err := os.MkdirTemp(l.c.work, "layer-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, 0)
	if err != nil {
		return err
	}
	req, err := json.Marshal(serve.SweepRequest{Experiment: "fig13", Apps: l.in.apps, Records: l.in.records, Seed: l.in.seed})
	if err != nil {
		return err
	}
	var syncs, asyncs []float64
	for i := 0; i < journalSyncAppends; i++ {
		rec := journal.Record{Type: journal.TypeAdmitted, ID: "job-" + strconv.Itoa(i+1), Seq: uint64(i + 1), Kind: "sweep", Request: req}
		t0 := time.Now()
		if err := j.Append(rec, true); err != nil {
			j.Close()
			return err
		}
		syncs = append(syncs, usSince(t0))
	}
	for i := 0; i < journalAsyncAppends; i++ {
		rec := journal.Record{Type: journal.TypeLane, ID: "job-" + strconv.Itoa(i%journalSyncAppends+1),
			Digest: store.KeyOf("siptperf", "lane", strconv.Itoa(i)).String()}
		t0 := time.Now()
		if err := j.Append(rec, false); err != nil {
			j.Close()
			return err
		}
		asyncs = append(asyncs, usSince(t0))
	}
	if err := j.Close(); err != nil {
		return err
	}
	l.out["journal.append_sync_us_p50"] = distribution(syncs, "")
	l.out["journal.append_sync_us_p99"] = metric{Value: quantile(syncs, 0.99), N: len(syncs), P: 0.99}
	l.out["journal.append_async_us_p50"] = distribution(asyncs, "")
	return nil
}

// schedHandoff times sched.Pool.Submit until the job function starts.
func (l *layerRun) schedHandoff() error {
	p := sched.New(sched.Config{Workers: serveWorkers})
	defer p.Drain()
	started := make(chan time.Time, 1)
	var samples []float64
	for i := 0; i < schedHandoffs; i++ {
		t0 := time.Now()
		if err := p.Submit(l.ctx, sched.Interactive, func(context.Context) { started <- time.Now() }); err != nil {
			return err
		}
		select {
		case t1 := <-started:
			samples = append(samples, float64(t1.Sub(t0).Nanoseconds())/1e3)
		case <-l.ctx.Done():
			return l.ctx.Err()
		}
	}
	l.out["sched.handoff_us_p50"] = distribution(samples, "")
	return nil
}

// serveProbe measures the serving stack for workloads that do not
// serve: a closed loop of /v1/run jobs over the workload's apps on a
// fresh daemon (every request simulated once, then served from memo).
func (l *layerRun) serveProbe(tr *tracer) error {
	dir, err := os.MkdirTemp(l.c.work, "layer-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := openDaemon(dir, l.in.seed)
	if err != nil {
		return err
	}
	var set []jobSpec
	for _, app := range l.in.apps {
		for _, mode := range warmRunModes {
			set = append(set, jobSpec{path: "/v1/run", key: len(set), body: serve.RunRequest{
				App: app, Mode: mode, Records: min(l.in.records, probeRecords), Seed: l.in.seed}})
		}
	}
	before, err := d.metrics(l.ctx)
	if err != nil {
		d.close()
		return err
	}
	ls, _ := closedLoop(l.ctx, d.client, func(k int) jobSpec { return set[k%len(set)] }, 200*time.Microsecond,
		func(k int, _ time.Duration) bool { return k < probeJobs }, func(int) bool { return false }, tr)
	after, err := d.metrics(l.ctx)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if ls.failed > 0 {
		return fmt.Errorf("serve probe: %d of %d jobs failed: %v", ls.failed, ls.attempted, ls.errs)
	}
	for k, v := range serveLayers(ls, before, after) {
		if _, ok := l.out[k]; !ok {
			l.out[k] = v
		}
	}
	return nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
