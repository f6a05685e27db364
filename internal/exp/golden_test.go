package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables")

// goldenOpts pins the configuration the golden tables were generated
// with. The reduced app set and trace length keep the test fast while
// still exercising every SIPT mode the figures compare.
func goldenOpts() Options {
	return Options{
		Records: 20_000,
		Seed:    1,
		Apps:    []string{"libquantum", "calculix", "h264ref", "ycsb"},
		Workers: 2,
	}
}

// renderExperiment runs one experiment on a fresh runner and renders
// every table to one text blob.
func renderExperiment(t *testing.T, id string, opts Options) string {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := e.Run(NewRunner(opts))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
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

// goldenCase pins the options an experiment's golden table was
// generated with: goldenOpts for every experiment except Fig. 15, which
// runs every Tab. III mix under five configurations, each core
// recycling its trace until the slowest finishes. A short per-core
// trace keeps it cheap (also under -race) while still crossing
// generator Resets.
func goldenCase(id string) Options {
	if id == "fig15" {
		return Options{Records: 2_000, Seed: 1, Workers: 2}
	}
	return goldenOpts()
}

// goldenPath is the golden file of one experiment.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden_"+id+".txt")
}

// TestGoldenTables asserts that refactors and hot-path optimisations
// never change experiment output: every experiment in All() must
// render byte-identically to its golden file. Regenerate (only after
// an intentional semantic change) with:
//
//	go test ./internal/exp -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			got := renderExperiment(t, e.ID, goldenCase(e.ID))
			path := goldenPath(e.ID)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table output drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, got, want)
			}
		})
	}
}

// TestGoldenDeterminism renders every experiment once more on a fresh
// runner with a single worker and compares it to the golden file, which
// was rendered with two: results must come back by position whatever
// the concurrency, the byte-identical-output gate that makes the
// benchmark harness trustworthy.
func TestGoldenDeterminism(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are being rewritten")
	}
	for _, e := range All() {
		opts := goldenCase(e.ID)
		opts.Workers = 1
		got := renderExperiment(t, e.ID, opts)
		want, err := os.ReadFile(goldenPath(e.ID))
		if err != nil {
			t.Fatalf("missing golden file (run TestGoldenTables with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s output with one worker differs from the golden output:\n--- got ---\n%s\n--- want ---\n%s",
				e.ID, got, want)
		}
	}
}
