package exp

import (
	"strings"
	"testing"
)

// renderAll runs one experiment on the given runner and concatenates
// every rendered table.
func renderAll(t *testing.T, e Experiment, r *Runner) string {
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

// TestFusedMatchesLegacy is the replay engine's end-to-end equivalence
// gate: every experiment must render byte-identically whether runs
// replay materialised traces through fused sweeps (the
// default) or regenerate each trace live per config (Options.LiveGen,
// the pre-replay path). A short trace and two apps keep the full
// experiment catalogue tractable.
func TestFusedMatchesLegacy(t *testing.T) {
	opts := Options{
		Records: 5_000,
		Seed:    1,
		Apps:    []string{"libquantum", "gcc"},
		Workers: 2,
	}
	liveOpts := opts
	liveOpts.LiveGen = true
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			fused := renderAll(t, e, NewRunner(opts))
			legacy := renderAll(t, e, NewRunner(liveOpts))
			if fused != legacy {
				t.Errorf("%s: fused replay output differs from live generation.\n--- fused ---\n%s\n--- live ---\n%s",
					e.ID, fused, legacy)
			}
		})
	}
}
