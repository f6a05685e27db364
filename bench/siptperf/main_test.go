package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// namedMetric is a metric entry of BENCHMARK.json.
type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// runHarness runs the command in-process from the package directory and
// returns its exit code, standard output and the decoded last line.
func runHarness(t *testing.T, args ...string) (int, string, map[string]any) {
	t.Helper()
	args = append(args, "-golden", filepath.Join("..", "..", "internal", "exp", "testdata"), "-work", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of stdout is not JSON: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), last
}

// TestSmokeEveryWorkload runs each workload briefly at -short sizes with
// tracing on and checks that every metric BENCHMARK.json names is
// emitted with its unit: the end-to-end ones in -out, the per-layer
// ones on the last line.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, siptperf has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.EndToEnd) != len(e2eDefs) || len(bf.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json names %d/%d metrics, siptperf defines %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2eDefs), len(layerDefs))
	}
	for i, m := range bf.EndToEnd {
		if d := e2eDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s (%s), siptperf %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range bf.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), siptperf %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := lookupWorkload(w.Name); !ok {
				t.Fatalf("siptperf has no workload %q", w.Name)
			}
			out := filepath.Join(t.TempDir(), "result.json")
			code, stdout, last := runHarness(t, "-workload", w.Name, "-short", "-seconds", "0.3", "-trace", "1", "-out", out)
			if code != 0 || last["correct"] != true {
				t.Fatalf("exit %d, correct=%v\n%s", code, last["correct"], stdout)
			}
			metrics, _ := last["metrics"].(map[string]any)
			for _, m := range bf.PerLayer {
				got, _ := metrics[m.Name].(map[string]any)
				if got == nil || got["unit"] != m.Unit {
					t.Errorf("per-layer %s: got %v, want unit %q", m.Name, got, m.Unit)
				}
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatalf("-out: %v", err)
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %q", m.Name, got, m.Unit)
				}
				if !strings.Contains(stdout, w.Name+" "+m.Name+" ") {
					t.Errorf("stdout has no %q line", m.Name)
				}
			}
			if len(res.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestCorruptedGoldenFailsRun proves the output check has teeth: with
// one byte of a golden table changed, the kernel-sweep run reports
// itself incorrect and exits non-zero.
func TestCorruptedGoldenFailsRun(t *testing.T) {
	dir := t.TempDir()
	for _, id := range kernelExps {
		b, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "golden_"+id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if id == "fig9" {
			i := bytes.IndexByte(b, '0')
			b[i] = '1'
		}
		if err := os.WriteFile(filepath.Join(dir, "golden_"+id+".txt"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if c := goldenCheck(dir); c.OK {
		t.Fatal("golden check passed against a corrupted reference")
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-workload", "kernel-sweep", "-short", "-seconds", "0.2",
		"-golden", dir, "-work", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if code == 0 || last.Correct || last.Failed == 0 {
		t.Fatalf("corrupted golden table: exit %d, correct=%v failed=%d", code, last.Correct, last.Failed)
	}
}

// TestSelfTimeCoversDuration checks the span accounting: overlapping
// children count once, derived spans are not subtracted, and self time
// plus the children's coverage equals each span's duration.
func TestSelfTimeCoversDuration(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "http.submit", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "http.poll", StartNS: 40, EndNS: 60},
		{ID: 4, Parent: 1, Name: "http.poll", StartNS: 50, EndNS: 70},
		{ID: 5, Parent: 1, Name: "server.run", StartNS: 5, EndNS: 95, Derived: true},
	}
	self := selfTimes(spans)
	if want := int64(100 - 10 - 30); self[0] != want {
		t.Errorf("job self = %d, want %d", self[0], want)
	}
	if self[4] != 90 {
		t.Errorf("derived span self = %d, want its whole duration 90", self[4])
	}
	rows := spanTable(spans)
	for _, r := range rows {
		if r.Name == "http.poll" && (r.Count != 2 || math.Abs(r.TotalMS-40e-6) > 1e-12) {
			t.Errorf("http.poll row = %+v", r)
		}
	}
}

// TestVerdict pins the A/B rule.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 75, 125}
	for _, tc := range []struct {
		name   string
		head   []float64
		higher bool
		want   string
	}{
		{"faster throughput", shift(1.2), true, "improved"},
		{"slower throughput", shift(0.8), true, "regressed"},
		{"lower latency", shift(0.8), false, "improved"},
		{"same", shift(1.0), true, "unchanged"},
		{"wide spread", noisy, true, "unresolved"},
	} {
		if got, _ := verdict(base, tc.head, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	var small []float64
	for i := 1; i <= 11; i++ {
		small = append(small, float64(i))
	}
	if m := tail(small, "ms"); m.Value != 10 || m.P != 0.9 {
		t.Errorf("tail of 11 samples = %+v, want p90 = 10", m)
	}
	var big []float64
	for i := 1; i <= 200; i++ {
		big = append(big, float64(i))
	}
	if m := tail(big, "ms"); m.P != 0.95 {
		t.Errorf("tail of 200 samples reports p%.3g, want p95 (10 samples beyond)", m.P*100)
	}
}
