package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sipt/internal/cpu"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// writeTestTrace materialises a small .sipt trace file.
func writeTestTrace(t *testing.T, path string, records uint64) {
	t.Helper()
	prof := workload.MustLookup("hmmer")
	prof.FootprintMiB = 2
	sys := sim.NewSystem(vm.ScenarioNormal, 1, prof)
	gen, err := workload.NewGenerator(prof, sys, 1, records)
	if err != nil {
		t.Fatal(err)
	}
	meta := tracefile.Meta{App: "hmmer", Scenario: vm.ScenarioNormal, Seed: 1}
	if _, err := writeTracefile(path, meta, gen); err != nil {
		t.Fatal(err)
	}
}

func TestInspectTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sipt")
	writeTestTrace(t, path, 2000)
	if err := inspectTrace(path, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestInspectTraceMissingFile(t *testing.T) {
	if err := inspectTrace(filepath.Join(t.TempDir(), "nope.sipt"), io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInspectTraceEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.sipt")
	enc, err := tracefile.Encode(tracefile.Meta{App: "hmmer", Scenario: vm.ScenarioNormal, Seed: 1}, &replay.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectTrace(path, io.Discard); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestRunEmitsTracefile drives the command end to end with -o: the
// output must carry the versioned format, inspect cleanly, and match
// the harness's own encoding of the same trace byte for byte.
func TestRunEmitsTracefile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lq.sipt")
	var out strings.Builder
	err := run([]string{"-app", "libquantum", "-records", "3000", "-seed", "7", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 3000 records") {
		t.Errorf("output = %q", out.String())
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tracefile.Sniff(got) {
		t.Fatal("output does not carry the tracefile magic")
	}
	prof := workload.MustLookup("libquantum")
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tracefile.Encode(tracefile.Meta{App: "libquantum", Scenario: vm.ScenarioNormal, Seed: 7}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("tracegen -o output differs from the harness encoding of the same trace")
	}

	var insp strings.Builder
	if err := inspectTrace(path, &insp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(insp.String(), "app libquantum") || !strings.Contains(insp.String(), "records        3000") {
		t.Errorf("inspect output = %q", insp.String())
	}
}

// TestRunUnwritableOutput: a bad output path must surface as an error
// from run (a non-zero exit), not a panic.
func TestRunUnwritableOutput(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "x.sipt")
	err := run([]string{"-app", "libquantum", "-records", "10", "-o", bad}, io.Discard)
	if err == nil {
		t.Fatalf("-o %s: unwritable path accepted", bad)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the path", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-app", "libquantum"},                        // no output
		{"-records", "10", "-o", "x.sipt"},            // no app
		{"-app", "nope", "-records", "10", "-o", "x"}, // unknown app
		{"-app", "libquantum", "-out", "x"},           // unknown flag: -o is the only output
		{"-app", "libquantum", "-scenario", "bogus", "-o", "x"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestReplayedTraceMatchesGenerated(t *testing.T) {
	// A materialised trace replayed through the simulator must produce
	// the same result as the generator-driven run.
	path := filepath.Join(t.TempDir(), "r.sipt")
	writeTestTrace(t, path, 3000)

	prof := workload.MustLookup("hmmer")
	prof.FootprintMiB = 2
	cfg := sim.Baseline(cpu.OOO())
	direct, err := sim.RunApp(context.Background(), prof, cfg, vm.ScenarioNormal, 1, 3000)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.RunTrace(context.Background(), "hmmer-file", r, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Core != replay.Core {
		t.Errorf("replay diverged: %+v vs %+v", direct.Core, replay.Core)
	}
	if direct.L1 != replay.L1 {
		t.Error("replay L1 stats diverged")
	}
}
