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

// TestGoldenTables asserts that the hot-path optimisations never change
// experiment output: fig6/fig9/fig13 (single-core) and fig15 (the
// coupled quad-core mixes, including the generator recycle path) must
// render byte-identically to the golden output captured from the
// pre-optimisation implementation. Regenerate (only after an
// intentional semantic change) with:
//
//	go test ./internal/exp -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, c := range []struct {
		id   string
		opts Options
	}{
		{"fig6", goldenOpts()},
		{"fig9", goldenOpts()},
		{"fig13", goldenOpts()},
		// Fig. 15 runs every Tab. III mix under five configurations, each
		// core recycling its trace until the slowest finishes: a short
		// per-core trace keeps it cheap (also under -race) while still
		// crossing generator Resets.
		{"fig15", Options{Records: 2_000, Seed: 1, Workers: 2}},
	} {
		t.Run(c.id, func(t *testing.T) {
			got := renderExperiment(t, c.id, c.opts)
			path := filepath.Join("testdata", "golden_"+c.id+".txt")
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
					c.id, got, want)
			}
		})
	}
}

// TestGoldenDeterminism asserts a single experiment renders identically
// across two independent runners (fresh caches, parallel workers): the
// byte-identical-output gate that makes the benchmark harness
// trustworthy.
func TestGoldenDeterminism(t *testing.T) {
	a := renderExperiment(t, "fig6", goldenOpts())
	b := renderExperiment(t, "fig6", goldenOpts())
	if a != b {
		t.Errorf("fig6 output not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
