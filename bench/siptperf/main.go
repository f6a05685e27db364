// Command siptperf is the repository's performance benchmark: one
// process that runs a workload against the simulator and the siptd
// serving stack, checks the outputs, and reports end-to-end and
// per-layer metrics. See README.md for the workloads, the metrics and
// how they interact.
//
// Usage (from the repository root; bench/siptperf/run.sh builds and
// runs it):
//
//	siptperf -workload NAME|all [-seed N] [-seconds S] [-trace 0|1]
//	         [-out FILE] [-spans FILE] [-short] [-cpuprofile FILE]
//	siptperf -ab DIR [-benchmark BENCHMARK.json]
//
// Every end-to-end metric is printed as a "name value unit" line with
// its sample count and quartiles; the last line of standard output is a
// JSON object {correct, attempted, failed, metrics}. With -trace 1 the
// workload runs a second time with spans on, then the layer pass runs,
// and the JSON carries the per-layer metrics instead. Any failed
// operation or output check exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"

	"sipt/internal/serve"
)

// sizes are the per-workload input sizes; -short selects the smoke-test
// set.
type sizes struct {
	kernelRecords uint64 // per app
	mixRecords    uint64 // per core
	coldRecords   uint64 // per app
	warmRecords   uint64 // per app and per uploaded trace
}

var (
	fullSizes  = sizes{kernelRecords: 200_000, mixRecords: 10_000, coldRecords: 100_000, warmRecords: 50_000}
	shortSizes = sizes{kernelRecords: 20_000, mixRecords: 1_000, coldRecords: 10_000, warmRecords: 5_000}
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupReps = 5

// runTimeout bounds one workload run end to end.
const runTimeout = 170 * time.Second

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	short      bool
	out        string
	spans      string
	golden     string
	work       string
	cpuprofile string
	size       sizes
}

// env is one set-up instance of a workload.
type env interface {
	// phase runs the timed closed loop for d; tr is nil when untraced.
	phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error)
	// verify checks the phase's outputs against references computed
	// outside the measured path.
	verify(ctx context.Context, c *config, p *phaseResult) []check
	// layerInput names the records the layer pass replays.
	layerInput() layerInput
	// close releases daemons and temporary directories.
	close() error
}

// workloadDef is one workload; BENCHMARK.json records why each exists.
type workloadDef struct {
	name    string
	seconds float64 // default timed phase
	setup   func(ctx context.Context, c *config) (env, error)
}

var workloads = []workloadDef{
	{"kernel-sweep", 20, newKernelEnv},
	{"quad-mix", 25, newMixEnv},
	{"serve-cold", 20, newColdEnv},
	{"serve-warm", 15, newWarmEnv},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one metric of BENCHMARK.json, which also records
// its direction and bound.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every workload reports. An
// operation is one rep of the workload's experiment sweep for the
// batch workloads and one job for the serve workloads.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerDefs are the per-layer metrics, named <module>.<metric>.
var layerDefs = []metricDef{
	{"replay.decode_ns", "ns"},
	{"replay.pool_hit_ratio", "ratio"},
	{"workload.generate_ns", "ns"},
	{"sim.materialize_ns", "ns"},
	{"sim.run_buffer_ns", "ns"},
	{"sim.run_configs_ns", "ns"},
	{"sim.run_configs_allocs", "count"},
	{"sim.fusion_gain", "x"},
	{"sim.run_mix_ns", "ns"},
	{"sim.run_mix_gen_share", "ratio"},
	{"cpu.step_ns", "ns"},
	{"core.l1_access_ns", "ns"},
	{"core.fast_ratio", "ratio"},
	{"core.extra_per_access", "ratio"},
	{"cache.access_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"tlb.translate_ns", "ns"},
	{"tlb.hit_ratio", "ratio"},
	{"dram.access_ns", "ns"},
	{"predictor.perceptron_ns", "ns"},
	{"predictor.perceptron_accuracy", "ratio"},
	{"predictor.idb_ns", "ns"},
	{"predictor.idb_accuracy", "ratio"},
	{"exp.harness_share", "ratio"},
	{"memo.hit_ratio", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p99", "ms"},
	{"serve.poll_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.polls_per_job", "count"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.retries_per_job", "count"},
	{"serve.sims_per_job", "count"},
	{"sched.handoff_us_p50", "us"},
	{"journal.append_sync_us_p50", "us"},
	{"journal.append_sync_us_p99", "us"},
	{"journal.append_async_us_p50", "us"},
	{"journal.syncs_per_job", "count"},
	{"store.put_us_p50", "us"},
	{"store.get_us_p50", "us"},
	{"store.puts_per_job", "count"},
	{"store.hits_per_job", "count"},
	{"tracefile.read_ns", "ns"},
}

// phaseResult is what one timed phase measured. Batch workloads fill
// rates (records per second, one per rep); serve workloads fill jobs.
type phaseResult struct {
	wall      time.Duration
	rates     []float64
	jobs      int
	latMS     []float64
	attempted int
	failed    int
	errs      []string
	output    string                  // batch: the first rep's rendered tables
	views     map[int][]serve.JobView // serve: served tables kept for verification
	layers    map[string]metric       // layer metrics the phase measured itself
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// endToEnd turns a phase into the end-to-end metrics.
func endToEnd(p *phaseResult, setups []float64, rssMiB float64) map[string]metric {
	m := map[string]metric{
		"setup_s":     distribution(setups, "s"),
		"op_p50_ms":   distribution(p.latMS, "ms"),
		"op_tail_ms":  tail(p.latMS, "ms"),
		"peak_rss_mb": {Value: rssMiB, Unit: "MiB"},
	}
	if p.rates != nil {
		m["ops_per_s"] = distribution(p.rates, "1/s")
	} else {
		m["ops_per_s"] = metric{Value: ratio(float64(p.jobs), p.wall.Seconds()), Unit: "1/s", N: p.jobs}
	}
	return m
}

// result is one workload run, as written by -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Short     bool              `json:"short,omitempty"`
	Host      hostInfo          `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Checks    []check           `json:"checks"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Traced    map[string]metric `json:"traced_end_to_end,omitempty"`
	Spans     []spanRow         `json:"spans,omitempty"`
}

// account adds a phase's operations and a set of checks to the totals.
func (r *result) account(p *phaseResult, checks []check) {
	r.Attempted += p.attempted + len(checks)
	r.Failed += p.failed
	r.Errors = append(r.Errors, p.errs...)
	for _, c := range checks {
		if !c.OK {
			r.Failed++
		}
	}
	r.Checks = append(r.Checks, checks...)
}

// errorRatio is (failed + refused operations + failed checks) per
// attempt.
func (r *result) errorRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siptperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 0, "timed phase length in seconds (0 = the workload's default)")
	fs.IntVar(&c.trace, "trace", 0, "1 = also run traced and report the per-layer metrics")
	fs.BoolVar(&c.short, "short", false, "smoke-test input sizes")
	fs.StringVar(&c.out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&c.spans, "spans", "", "with -trace 1, write every span as JSON to this file")
	fs.StringVar(&c.golden, "golden", filepath.Join("internal", "exp", "testdata"), "directory of the golden fig6/fig9/fig13 tables")
	fs.StringVar(&c.work, "work", filepath.Join(".bench_build", "work"), "directory for temporary stores and journals")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phase to this file")
	abDir := fs.String("ab", "", "summarise an A/B directory of base-N.json and head-N.json results and exit")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "with -ab, the file holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *abDir != "" {
		if err := abReport(stdout, *abDir, *benchmark); err != nil {
			fmt.Fprintln(stderr, "siptperf:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (c.trace != 0 && c.trace != 1) || c.seconds < 0 {
		fmt.Fprintln(stderr, "siptperf: bad arguments (see -h)")
		return 2
	}
	c.size = fullSizes
	if c.short {
		c.size = shortSizes
	}
	if c.workload == "all" {
		return runAll(ctx, c, stdout, stderr)
	}
	w, ok := lookupWorkload(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "siptperf: unknown workload %q\n", c.workload)
		return 2
	}
	base := c.work
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "siptperf-")
	if err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	defer os.RemoveAll(work)
	c.work = work

	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	res, err := runWorkload(ctx, c, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "siptperf: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, res, c.trace == 1)
	if err := writeJSON(c.out, res); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	if err := printVerdict(stdout, []*result{res}, c.trace == 1, false); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets w up setupReps times, runs the timed phase on the
// last instance, verifies its outputs, and with tracing on repeats the
// phase traced on a fresh instance before the layer pass.
func runWorkload(ctx context.Context, c *config, w workloadDef, log io.Writer) (*result, error) {
	d := time.Duration(w.seconds * float64(time.Second))
	if c.seconds > 0 {
		d = time.Duration(c.seconds * float64(time.Second))
	}
	res := &result{Workload: w.name, Seed: c.seed, Seconds: d.Seconds(), Short: c.short, Host: readHost()}

	var e env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(ctx, c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(log, "[%s: set up in %.3fs, timing %v]\n", w.name, quantile(setups, 0.5), d)

	stop, err := startProfile(c.cpuprofile)
	if err != nil {
		e.close()
		return nil, err
	}
	p, err := e.phase(ctx, d, nil)
	stop()
	if err != nil {
		e.close()
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		e.close()
		return nil, err
	}
	res.EndToEnd = endToEnd(p, setups, rss)
	res.account(p, e.verify(ctx, c, p))
	if err := e.close(); err != nil {
		return nil, err
	}
	if c.trace == 0 {
		return res, nil
	}

	fmt.Fprintf(log, "[%s: traced run and layer pass]\n", w.name)
	t0 := time.Now()
	if e, err = w.setup(ctx, c); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tracedSetup := []float64{time.Since(t0).Seconds()}
	tr := newTracer()
	pt, err := e.phase(ctx, d, tr)
	if err != nil {
		e.close()
		return nil, err
	}
	res.account(pt, nil)
	res.Traced = endToEnd(pt, tracedSetup, rss)
	layers, err := layerPass(ctx, c, e.layerInput(), pt.layers, tr)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.PerLayer = layers
	spans := tr.snapshot()
	res.Spans = spanTable(spans)
	return res, writeJSON(c.spans, spans)
}

func startProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeJSON writes v indented to path; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult writes the human-readable report of one run.
func printResult(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g nproc=%d gomaxprocs=%d %s %q\n",
		r.Workload, r.Seed, r.Seconds, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.CPUModel)
	for _, d := range e2eDefs {
		printMetric(w, r.Workload+" "+d.name, r.EndToEnd[d.name])
	}
	fmt.Fprintf(w, "%s error_ratio %.6g ratio failed=%d attempted=%d\n", r.Workload, r.errorRatio(), r.Failed, r.Attempted)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL " + c.Detail
		}
		fmt.Fprintf(w, "%s check %q: %s\n", r.Workload, c.Name, status)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error: %s\n", r.Workload, e)
	}
	if !traced {
		return
	}
	for _, d := range layerDefs {
		printMetric(w, r.Workload+" "+d.name, r.PerLayer[d.name])
	}
	printSpanTable(w, r.Spans)
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "tracing overhead", "untraced", "traced", "delta")
	// Peak RSS is process-wide and only grows, so it has no traced twin.
	for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms"} {
		u, t := r.EndToEnd[name].Value, r.Traced[name].Value
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %8.2f%%\n", name, u, t, 100*ratio(t-u, u))
	}
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "%s %.6g %s", name, m.Value, m.Unit)
	if m.N > 0 {
		fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
	}
	if m.P > 0 {
		fmt.Fprintf(w, " p=%.3g", m.P)
	}
	fmt.Fprintln(w)
}

// printVerdict writes the final JSON line: correctness, operation
// counts, and the end-to-end (or, traced, per-layer) metrics. With
// prefixed, metric names carry their workload.
func printVerdict(w io.Writer, results []*result, traced, prefixed bool) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		defs, ms := e2eDefs, r.EndToEnd
		if traced {
			defs, ms = layerDefs, r.PerLayer
		}
		for _, d := range defs {
			name := d.name
			if prefixed {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = valueUnit{Value: ms[d.name].Value, Unit: d.unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload, each in a fresh process so peak RSS and
// heap state are the workload's own, and reports them together.
func runAll(ctx context.Context, c *config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(c.work, "all-")
	if err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var results []*result
	for _, w := range workloads {
		out := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.seed), "-trace", fmt.Sprint(c.trace),
			"-out", out, "-golden", c.golden, "-work", c.work}
		if c.seconds > 0 {
			args = append(args, "-seconds", fmt.Sprint(c.seconds))
		}
		if c.short {
			args = append(args, "-short")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintf(stderr, "siptperf: %s: %v\n", w.name, err)
			return 1
		}
		b, rerr := os.ReadFile(out)
		if rerr != nil {
			fmt.Fprintf(stderr, "siptperf: %s produced no result: %v (%v)\n", w.name, rerr, err)
			return 1
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			fmt.Fprintf(stderr, "siptperf: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, &r)
	}
	failed := 0
	for _, r := range results {
		printResult(stdout, r, c.trace == 1)
		failed += r.Failed
	}
	if err := writeJSON(c.out, results); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	if err := printVerdict(stdout, results, c.trace == 1, true); err != nil {
		fmt.Fprintln(stderr, "siptperf:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}
