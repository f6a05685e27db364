package exp

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// tiny returns a runner small enough for unit tests: three apps, short
// traces.
func tiny() *Runner {
	return NewRunner(Options{
		Records: 8_000,
		Seed:    1,
		Apps:    []string{"h264ref", "calculix", "libquantum"},
		Workers: 2,
	})
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper table/figure with evaluation content must be present.
	for _, id := range []string{"tab1", "tab2", "tab3", "fig1", "fig2", "fig3",
		"fig5", "fig6", "fig7", "fig9", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18"} {
		if !ids[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("fig5")
	if err != nil || e.ID != "fig5" {
		t.Fatalf("Lookup(fig5) = %v, %v", e.ID, err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestHMean(t *testing.T) {
	if got := hmean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("hmean ones = %v", got)
	}
	got := hmean([]float64{0.5, 2})
	if got <= 0.79 || got >= 0.81 {
		t.Errorf("hmean(0.5,2) = %v, want 0.8", got)
	}
	if hmean(nil) != 0 || hmean([]float64{0}) != 0 {
		t.Error("degenerate hmean not 0")
	}
}

func TestAMean(t *testing.T) {
	if got := amean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("amean = %v", got)
	}
	if amean(nil) != 0 {
		t.Error("amean(nil) != 0")
	}
}

func TestStaticTables(t *testing.T) {
	r := tiny()
	for _, id := range []string{"tab1", "tab2", "tab3", "fig1"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestTab3MatchesWorkloadMixes(t *testing.T) {
	tabs, err := Tab3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != len(workload.Mixes()) {
		t.Errorf("tab3 rows = %d, want %d", len(tabs[0].Rows), len(workload.Mixes()))
	}
}

func TestFig5FractionsMonotonic(t *testing.T) {
	r := tiny()
	tabs, err := Fig5(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		var v [4]float64
		for i := 0; i < 4; i++ {
			f, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				t.Fatal(err)
			}
			v[i] = f
		}
		// More required bits can only reduce the correct fraction, and
		// every fraction is in [0,1].
		if v[0] < v[1] || v[1] < v[2] {
			t.Errorf("%s: fractions not monotonic: %v", row[0], v)
		}
		for _, f := range v {
			if f < 0 || f > 1 {
				t.Errorf("%s: fraction %v out of range", row[0], f)
			}
		}
	}
	// libquantum must be hugepage-dominated.
	for _, row := range tabs[0].Rows {
		if row[0] == "libquantum" {
			huge, _ := strconv.ParseFloat(row[4], 64)
			if huge < 0.8 {
				t.Errorf("libquantum huge fraction %v, want >= 0.8", huge)
			}
		}
	}
}

func TestFig2RunsAndNormalises(t *testing.T) {
	r := tiny()
	tabs, err := Fig2(r)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != len(r.opts.apps())+1 { // + Average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Average" {
		t.Fatalf("last row = %v", last)
	}
	for _, cell := range last[1:] {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0.3 || v > 3 {
			t.Errorf("implausible normalised IPC %v", v)
		}
	}
}

func TestFig6NaiveVsFig13Combined(t *testing.T) {
	r := tiny()
	f6, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	f13, err := Fig13(r)
	if err != nil {
		t.Fatal(err)
	}
	find := func(rows [][]string, app string) []string {
		for _, row := range rows {
			if row[0] == app {
				return row
			}
		}
		return nil
	}
	// calculix (bad speculation): combined must produce fewer extra
	// accesses than naive.
	n := find(f6[0].Rows, "calculix")
	c := find(f13[0].Rows, "calculix")
	if n == nil || c == nil {
		t.Fatal("calculix row missing")
	}
	ne, _ := strconv.ParseFloat(n[3], 64)
	ce, _ := strconv.ParseFloat(c[3], 64)
	if ce >= ne {
		t.Errorf("combined extra %v >= naive extra %v", ce, ne)
	}
}

func TestFig9FractionsSumToOne(t *testing.T) {
	r := tiny()
	tabs, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		var sum float64
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s bits=%s: outcome fractions sum to %v", row[0], row[1], sum)
		}
	}
}

func TestFig12FractionsSumToOne(t *testing.T) {
	r := tiny()
	tabs, err := Fig12(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		var sum float64
		for _, cell := range row[2:] {
			v, _ := strconv.ParseFloat(cell, 64)
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s bits=%s: fractions sum to %v", row[0], row[1], sum)
		}
	}
}

func TestFig14EnergyBelowBaseline(t *testing.T) {
	r := tiny()
	tabs, err := Fig14(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	avg, _ := strconv.ParseFloat(last[1], 64)
	if avg >= 1 {
		t.Errorf("average SIPT+IDB energy %v, want < 1 (baseline)", avg)
	}
}

func TestFig16WayAccuracyImproves(t *testing.T) {
	r := tiny()
	tabs, err := Fig16(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	accBase, _ := strconv.ParseFloat(last[5], 64)
	accSIPT, _ := strconv.ParseFloat(last[6], 64)
	if accSIPT <= accBase {
		t.Errorf("way accuracy on 2-way SIPT (%v) should exceed 8-way baseline (%v)",
			accSIPT, accBase)
	}
}

func TestMemoisationReusesRuns(t *testing.T) {
	r := tiny()
	if _, err := Fig6(r); err != nil {
		t.Fatal(err)
	}
	n := r.CacheStats().Entries
	if n == 0 {
		t.Fatal("nothing cached")
	}
	// Fig7 uses exactly the same runs: cache must not grow.
	if _, err := Fig7(r); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheStats().Entries; got != n {
		t.Errorf("cache grew from %d to %d; Fig6/Fig7 should share runs", n, got)
	}
}

func TestRenderAllSmallExperiments(t *testing.T) {
	r := tiny()
	for _, id := range []string{"tab1", "fig1", "fig5"} {
		e, _ := Lookup(id)
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			if err := tab.Render(&b); err != nil {
				t.Fatal(err)
			}
			if err := tab.RenderCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		if b.Len() == 0 {
			t.Errorf("%s rendered nothing", id)
		}
	}
}

func TestFig3InOrderSweep(t *testing.T) {
	r := NewRunner(Options{Records: 5_000, Seed: 1,
		Apps: []string{"calculix", "xalancbmk_17"}, Workers: 2})
	tabs, err := Fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 3 { // 2 apps + Average
		t.Fatalf("rows = %d", len(tabs[0].Rows))
	}
}

func TestFig7EnergyColumnsOrdered(t *testing.T) {
	r := tiny()
	tabs, err := Fig7(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		e, _ := strconv.ParseFloat(row[1], 64)
		ds, _ := strconv.ParseFloat(row[3], 64)
		if ds >= e {
			t.Errorf("%s: dynamic component %v not below total %v", row[0], ds, e)
		}
	}
}

func TestFig15TinyMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("quad-core sweep")
	}
	r := NewRunner(Options{Records: 2_000, Seed: 1, Workers: 2})
	tabs, err := Fig15(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 12 { // 11 mixes + Average
		t.Fatalf("rows = %d", len(tabs[0].Rows))
	}
	for _, row := range tabs[0].Rows {
		for _, cell := range row[1:5] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0.3 || v > 3 {
				t.Errorf("%s: implausible normalised sum-of-IPC %v", row[0], v)
			}
		}
	}
}

func TestFig18TinyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep")
	}
	r := NewRunner(Options{Records: 3_000, Seed: 1,
		Apps: []string{"gcc", "libquantum"}, Workers: 2})
	tabs, err := Fig18(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 8 { // 2 cores x 4 scenarios
		t.Fatalf("rows = %d", len(tabs[0].Rows))
	}
	for _, row := range tabs[0].Rows {
		acc, err := strconv.ParseFloat(row[9], 64)
		if err != nil {
			t.Fatal(err)
		}
		if acc <= 0 || acc > 1 {
			t.Errorf("%s: prediction accuracy %v out of range", row[0], acc)
		}
	}
}

func TestAblations(t *testing.T) {
	r := tiny()
	for _, id := range []string{"abl-pred", "abl-idb", "abl-slow"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs[0].Rows) != len(r.opts.apps())+1 {
			t.Errorf("%s: rows = %d", id, len(tabs[0].Rows))
		}
	}
}

func TestAblationSlowPathOrdering(t *testing.T) {
	r := tiny()
	tabs, err := AblationSlowPath(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	var v [5]float64
	for i := 0; i < 5; i++ {
		v[i], _ = strconv.ParseFloat(last[i+1], 64)
	}
	// pipt <= combined <= ideal on average; naive between pipt and ideal.
	if !(v[0] <= v[3] && v[3] <= v[4]+1e-9) {
		t.Errorf("design progression violated: %v", v)
	}
}

func TestExtensions(t *testing.T) {
	r := tiny()
	for _, id := range []string{"ext-replay", "ext-coloring", "ext-icache"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs[0].Rows) != len(r.opts.apps())+1 {
			t.Errorf("%s: rows = %d", id, len(tabs[0].Rows))
		}
	}
}

func TestExtColoringNearPerfect(t *testing.T) {
	r := tiny()
	tabs, err := ExtColoring(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	colored, _ := strconv.ParseFloat(last[2], 64)
	plain, _ := strconv.ParseFloat(last[1], 64)
	if colored < 0.95 {
		t.Errorf("colored naive fast fraction %v, want >= 0.95", colored)
	}
	if colored <= plain {
		t.Errorf("coloring (%v) did not improve on plain naive (%v)", colored, plain)
	}
}

func TestExtICacheCombinedHigh(t *testing.T) {
	r := tiny()
	tabs, err := ExtICache(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	combined, _ := strconv.ParseFloat(last[2], 64)
	if combined < 0.9 {
		t.Errorf("I-side combined fast fraction %v, want >= 0.9 (paper's conjecture)", combined)
	}
}

func TestAblationWayPredictor(t *testing.T) {
	r := tiny()
	tabs, err := AblationWayPredictor(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	mru8, _ := strconv.ParseFloat(last[1], 64)
	mru2, _ := strconv.ParseFloat(last[3], 64)
	if mru2 <= mru8 {
		t.Errorf("2-way MRU accuracy %v should exceed 8-way %v (paper Sec. VII-A)", mru2, mru8)
	}
	for _, cell := range last[1:] {
		v, _ := strconv.ParseFloat(cell, 64)
		if v < 0 || v > 1 {
			t.Errorf("accuracy %v out of range", v)
		}
	}
}

// TestAblationWayMatchesFig16 keeps abl-way's cache loop from drifting
// from the way predictor it ablates: at golden options its MRU columns
// equal, as floats, the way accuracy core.L1 reports for Fig. 16's
// baseline+WP (8 ways) and SIPT+IDB+WP (2 ways) runs.
func TestAblationWayMatchesFig16(t *testing.T) {
	r := NewRunner(goldenOpts())
	for _, app := range goldenOpts().Apps {
		acc, err := wayPredictorAccuracies(r, app)
		if err != nil {
			t.Fatal(err)
		}
		sts, err := r.RunConfigs(app, wayPredConfigs(), vm.ScenarioNormal)
		if err != nil {
			t.Fatal(err)
		}
		if want := sts[1].L1.WayAccuracy(); acc[0] != want {
			t.Errorf("%s: abl-way mru-8way %v, Fig. 16 wp-acc-base %v", app, acc[0], want)
		}
		if want := sts[3].L1.WayAccuracy(); acc[2] != want {
			t.Errorf("%s: abl-way mru-2way %v, Fig. 16 wp-acc-sipt %v", app, acc[2], want)
		}
	}
}

// TestAblationPredictorMatchesFig9 keeps abl-pred's outcome stream
// from drifting from core.L1's: at golden options its perceptron-64x12
// column equals, as a float, the bypass accuracy of Fig. 9's 2-bit
// (32K/2w) run.
func TestAblationPredictorMatchesFig9(t *testing.T) {
	r := NewRunner(goldenOpts())
	fig9 := []sim.Config{sim.SIPT(cpu.OOO(), 32, 2, core.ModeBypass)}
	for _, app := range goldenOpts().Apps {
		acc, err := bypassAccuracies(r, app)
		if err != nil {
			t.Fatal(err)
		}
		sts, err := r.RunConfigs(app, fig9, vm.ScenarioNormal)
		if err != nil {
			t.Fatal(err)
		}
		if want := sts[0].Bypass.Accuracy(); acc[0] != want {
			t.Errorf("%s: abl-pred perceptron-64x12 %v, Fig. 9 2-bit accuracy %v", app, acc[0], want)
		}
	}
}

// TestICacheFractionsHonourCancel: the per-record scan in
// icacheFastFractions is record-scaled, so a cancelled context must
// surface promptly instead of walking the whole fetch stream.
func TestICacheFractionsHonourCancel(t *testing.T) {
	prof, err := workload.Lookup("h264ref")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = icacheFastFractions(ctx, prof, 1, 20_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
