package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sipt/internal/exp"
	"sipt/internal/journal"
	"sipt/internal/store"
)

var update = flag.Bool("update", false, "rewrite the /metrics shape golden")

// TestMetricsShapeGolden pins the name, help text and type of every
// metric a fully configured daemon (journal, result store, trace store)
// exposes, in exposition order: the # HELP and # TYPE lines of
// /metrics. Dashboards and bench/siptperf scrape these names. Values
// are not pinned. Regenerate with -update, never by hand.
func TestMetricsShapeGolden(t *testing.T) {
	results, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	traces := openTraceStore(t, 1<<30)
	jnl, err := journal.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64, Store: results})
	s := New(Config{Runner: runner, TraceStore: traces, Journal: jnl, ResultStore: results})
	t.Cleanup(func() {
		s.Drain()
		jnl.Close()
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var shape strings.Builder
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			shape.WriteString(line)
		}
	}

	path := filepath.Join("testdata", "metrics_shape.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(shape.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if shape.String() != string(want) {
		t.Errorf("/metrics shape differs from %s:\n%s", path, shape.String())
	}
}
