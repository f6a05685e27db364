package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"time"

	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

func TestParseGeometry(t *testing.T) {
	cases := []struct {
		in      string
		size, w int
		ok      bool
	}{
		{"32K2w", 32, 2, true},
		{"32k8W", 32, 8, true},
		{"128K4w", 128, 4, true},
		{"32", 0, 0, false},
		{"abc", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		size, ways, err := sim.ParseGeometry(c.in)
		if c.ok != (err == nil) {
			t.Errorf("sim.ParseGeometry(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (size != c.size || ways != c.w) {
			t.Errorf("sim.ParseGeometry(%q) = %d,%d; want %d,%d", c.in, size, ways, c.size, c.w)
		}
	}
}

func TestParseMode(t *testing.T) {
	good := map[string]core.Mode{
		"vipt": core.ModeVIPT, "IDEAL": core.ModeIdeal, "naive": core.ModeNaive,
		"Bypass": core.ModeBypass, "combined": core.ModeCombined,
	}
	for in, want := range good {
		got, err := core.ParseMode(in)
		if err != nil || got != want {
			t.Errorf("core.ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := core.ParseMode("warp"); err == nil {
		t.Error("parseMode accepted garbage")
	}
}

func TestParseScenario(t *testing.T) {
	for _, sc := range vm.Scenarios() {
		got, err := vm.ParseScenario(sc.String())
		if err != nil || got != sc {
			t.Errorf("vm.ParseScenario(%q) = %v, %v", sc.String(), got, err)
		}
	}
	if _, err := vm.ParseScenario("zero-g"); err == nil {
		t.Error("parseScenario accepted garbage")
	}
}

// TestTimeoutCancelsRunPromptly is the -timeout regression test: a run
// whose deadline expires must return quickly (not after the full
// trace), and with the distinct context error so callers can tell a
// timeout from a simulation failure.
func TestTimeoutCancelsRunPromptly(t *testing.T) {
	ctx, cancel := simContext(time.Millisecond)
	defer cancel()
	prof, err := workload.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// 50M records would take minutes; the 1ms deadline must cut it off.
	_, err = sim.RunApp(ctx, prof, sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		vm.ScenarioNormal, 1, 50_000_000)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
}

// TestSimContextZeroMeansNoLimit verifies -timeout 0 runs without a
// deadline.
func TestSimContextZeroMeansNoLimit(t *testing.T) {
	ctx, cancel := simContext(0)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("timeout 0 produced a deadline-bound context")
	}
	if ctx.Err() != nil {
		t.Errorf("fresh no-limit context already errored: %v", ctx.Err())
	}
}

// TestRunDeadlineExitCode drives the full CLI: a -timeout too short for
// the trace must exit with the dedicated code 3 and say "deadline
// exceeded" plainly on stderr.
func TestRunDeadlineExitCode(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-app", "mcf", "-records", "50000000", "-timeout", "1ms"}, &out, &errOut)
	if code != exitDeadline {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitDeadline, errOut.String())
	}
	if !strings.Contains(errOut.String(), "deadline exceeded") {
		t.Errorf("stderr = %q, want a clear deadline message", errOut.String())
	}
}

// TestRunExitCodes pins the rest of the CLI exit-code contract.
func TestRunExitCodes(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-listapps"}, &out, &errOut); code != 0 {
		t.Errorf("-listapps exit = %d, want 0", code)
	}
	if out.Len() == 0 {
		t.Error("-listapps printed nothing")
	}
	if code := run([]string{"-l1", "banana"}, &out, &errOut); code != 1 {
		t.Errorf("bad geometry exit = %d, want 1", code)
	}
	errOut.Reset()
	if code := run([]string{"-l1", "32K32w", "-records", "2000"}, &out, &errOut); code != 1 {
		t.Errorf("32-way L1 exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "32 ways above 16") {
		t.Errorf("32-way L1 stderr = %q, want the way limit named", errOut.String())
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-app", "mcf", "-records", "2000"}, &out, &errOut); code != 0 {
		t.Errorf("normal run exit = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "IPC") {
		t.Error("normal run printed no IPC line")
	}
}

// writeTrace materialises app under sc and seed as a .sipt file.
func writeTrace(t *testing.T, app string, sc vm.Scenario, seed int64, records uint64) string {
	t.Helper()
	buf, err := sim.Materialize(workload.MustLookup(app), sc, seed, records)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tracefile.Encode(tracefile.Meta{App: app, Scenario: sc, Seed: seed}, buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app+".sipt")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertReplayMatchesLive runs replayArgs and liveArgs and requires
// identical stats line for line, apart from the workload label.
func assertReplayMatchesLive(t *testing.T, replayArgs, liveArgs []string) {
	t.Helper()
	var fromFile, live strings.Builder
	if code := run(replayArgs, &fromFile, &fromFile); code != 0 {
		t.Fatalf("replay exit %d: %s", code, fromFile.String())
	}
	if code := run(liveArgs, &live, &live); code != 0 {
		t.Fatalf("live exit %d: %s", code, live.String())
	}
	trim := func(s string) string { return s[strings.Index(s, "\n"):] }
	if trim(fromFile.String()) != trim(live.String()) {
		t.Fatalf("tracefile replay drifted from live run:\n%s\nvs\n%s", fromFile.String(), live.String())
	}
}

// TestReplayTracefileFormat: -trace reads the versioned tracefile
// format (tracegen -o) and replays it bit-identically to the
// generator-driven run of the same workload.
func TestReplayTracefileFormat(t *testing.T) {
	path := writeTrace(t, "libquantum", vm.ScenarioNormal, 5, 2000)
	flags := []string{"-l1", "32K2w", "-mode", "combined", "-seed", "5", "-records", "2000"}
	assertReplayMatchesLive(t,
		append([]string{"-trace", path}, flags...),
		append([]string{"-app", "libquantum"}, flags...))
}

// TestReplayTakesScenarioFromHeader: a trace recorded under no-contig
// replays as no-contig without -scenario (the core must be configured
// for it, as the live run is), and an explicit -scenario that
// contradicts the header is refused.
func TestReplayTakesScenarioFromHeader(t *testing.T) {
	path := writeTrace(t, "mcf", vm.ScenarioNoContig, 1, 20_000)
	flags := []string{"-l1", "32K2w", "-mode", "combined", "-seed", "1", "-records", "20000"}
	assertReplayMatchesLive(t,
		append([]string{"-trace", path}, flags...),
		append([]string{"-app", "mcf", "-scenario", "no-contig"}, flags...))
	assertReplayMatchesLive(t,
		append([]string{"-trace", path, "-scenario", "no-contig"}, flags...),
		append([]string{"-app", "mcf", "-scenario", "no-contig"}, flags...))

	var out, errOut strings.Builder
	if code := run(append([]string{"-trace", path, "-scenario", "normal"}, flags...), &out, &errOut); code != 1 {
		t.Fatalf("contradicting -scenario exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "disagrees") {
		t.Errorf("stderr = %q, want the scenario mismatch named", errOut.String())
	}
}
