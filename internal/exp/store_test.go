package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderWith renders one experiment under explicit options on a fresh
// runner.
func renderWith(t *testing.T, id string, opts Options) string {
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

// TestStoreWarmMatchesGolden is the tentpole's warm-from-disk equality
// gate: a store-backed run renders the pinned golden tables
// byte-identically, and a second, fresh runner over the same store
// directory renders them again byte-identically WITHOUT running a
// single simulation or materialising a trace — every result is revived
// from disk, so no trace is needed.
func TestStoreWarmMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fig6.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}

	cold := goldenOpts()
	cold.Store = openStore(t, dir)
	if got := renderWith(t, "fig6", cold); got != string(golden) {
		t.Fatalf("store-backed cold run drifted from golden output:\n%s", got)
	}
	if st := cold.Store.Stats(); st.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	// "Restart": a brand-new runner and store handle over the same
	// directory — nothing shared in memory.
	warm := goldenOpts()
	warm.Store = openStore(t, dir)
	e, err := Lookup("fig6")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(warm)
	tabs, err := e.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	if b.String() != string(golden) {
		t.Fatalf("warm-from-disk run drifted from golden output:\n%s", b.String())
	}
	if sims := r.Simulations(); sims != 0 {
		t.Fatalf("warm run re-simulated %d times; every result should come from disk", sims)
	}
	st, ok := r.StoreStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("warm run reported no store hits: %+v (ok=%v)", st, ok)
	}
	// The warm sweep never needed a trace: full result coverage means
	// the pool was never asked to materialise.
	if ts := r.TraceStats(); ts.Misses != 0 {
		t.Fatalf("warm run materialised traces: %+v", ts)
	}
}

// TestStoreHoldsOnlyResults asserts the store's contract for synthetic
// traces: a cold run persists its result and nothing else, and a second
// process that misses the result regenerates the trace (one pool miss,
// one simulation) to the identical stats.
func TestStoreHoldsOnlyResults(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Records: 5_000, Seed: 3, Apps: []string{"libquantum"}, Workers: 1}
	cfg := sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined)

	first := opts
	first.Store = openStore(t, dir)
	r1 := NewRunner(first)
	st1, err := r1.Run("libquantum", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if stats, _ := r1.StoreStats(); stats.Entries != 1 {
		t.Fatalf("store holds %d blobs after one run, want 1 (the result alone): %+v", stats.Entries, stats)
	}

	// Fresh process, same store; drop the stored result so the run must
	// simulate, and so regenerate its trace.
	second := opts
	second.Store = openStore(t, dir)
	r2 := NewRunner(second)
	second.Store.Delete(r2.resultStoreKey(r2.traceDigest("libquantum", vm.ScenarioNormal),
		r2.key("libquantum", cfg, vm.ScenarioNormal)))

	st2, err := r2.Run("libquantum", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("run over a regenerated trace differs from the original run")
	}
	if ts := r2.TraceStats(); ts.Misses != 1 {
		t.Fatalf("trace pool misses = %d, want 1 (the trace regenerated once): %+v", ts.Misses, ts)
	}
	if sims := r2.Simulations(); sims != 1 {
		t.Fatalf("Simulations = %d, want 1", sims)
	}
}

// TestStoreCorruptResultRecomputes asserts the fallback ladder: a
// damaged stored result is discarded and recomputed to the identical
// stats, repairing the store.
func TestStoreCorruptResultRecomputes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Records: 4_000, Seed: 9, Apps: []string{"gcc"}, Workers: 1}
	cfg := sim.Baseline(cpu.OOO())

	first := opts
	first.Store = openStore(t, dir)
	st1, err := NewRunner(first).Run("gcc", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every stored blob on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		p := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 {
			raw[len(raw)-1] ^= 0xff
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second := opts
	second.Store = openStore(t, dir)
	r2 := NewRunner(second)
	st2, err := r2.Run("gcc", cfg, vm.ScenarioNormal)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("recompute after corruption differs from the original run")
	}
	if sims := r2.Simulations(); sims != 1 {
		t.Fatalf("Simulations = %d, want 1", sims)
	}
	stats, _ := r2.StoreStats()
	if stats.Corrupt == 0 {
		t.Fatalf("corruption not observed: %+v", stats)
	}
}

// TestRunTraceStoreBacked asserts the ingested-trace path: RunTrace
// memoises under the trace's content digest, persists, and a fresh
// runner over the same store serves it without simulating or loading
// the trace.
func TestRunTraceStoreBacked(t *testing.T) {
	dir := t.TempDir()
	prof, err := workload.Lookup("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sim.Materialize(prof, vm.ScenarioNormal, 11, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tracefile.Encode(tracefile.Meta{App: "ycsb", Scenario: vm.ScenarioNormal, Seed: 11}, buf)
	if err != nil {
		t.Fatal(err)
	}
	digest := store.KeyOfBytes(enc).String()
	cfg := sim.SIPT(cpu.OOO(), 64, 4, core.ModeCombined)

	loads := 0
	load := func() (*replay.Buffer, error) { loads++; return buf, nil }

	first := Options{Seed: 11, Workers: 1}
	first.Store = openStore(t, dir)
	r1 := NewRunner(first)
	st1, err := r1.RunTrace(digest, "ycsb-upload", load, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Simulations() != 1 {
		t.Fatalf("Simulations = %d, want 1", r1.Simulations())
	}
	// Memoised in RAM: a repeat is free.
	if st, err := r1.RunTrace(digest, "ycsb-upload", load, cfg); err != nil || st != st1 {
		t.Fatalf("memoised RunTrace: %v", err)
	}
	if r1.Simulations() != 1 {
		t.Fatalf("repeat RunTrace re-simulated")
	}

	second := Options{Seed: 11, Workers: 1}
	second.Store = openStore(t, dir)
	r2 := NewRunner(second)
	st2, err := r2.RunTrace(digest, "ycsb-upload", load, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st1 {
		t.Fatal("warm RunTrace differs from the original run")
	}
	if r2.Simulations() != 0 {
		t.Fatalf("warm RunTrace simulated %d times, want 0", r2.Simulations())
	}
	// Only the one simulation read the trace: memo and store hits never
	// call the loader.
	if loads != 1 {
		t.Fatalf("trace loaded %d times, want 1", loads)
	}
}
