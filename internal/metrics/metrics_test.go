package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs accepted")
	g := r.Gauge("queue_depth", "queued jobs")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	if g.Load() != 5 {
		t.Errorf("gauge = %d, want 5", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 5122 {
		t.Errorf("sum = %d, want 5122", h.Sum())
	}
	want := []uint64{2, 2, 0, 1} // (..10], (10..100], (100..1000], +Inf
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

// TestRenderDeterministic asserts two scrapes of the same state are
// byte-identical and name-sorted, regardless of registration order.
func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "last registered, first alphabetically after...")
	r.Gauge("alpha_depth", "")
	r.Histogram("mid_latency_ns", "latency", 1000, 1000000)

	var a, b strings.Builder
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of identical state differ")
	}
	out := a.String()
	ia := strings.Index(out, "alpha_depth")
	im := strings.Index(out, "mid_latency_ns")
	iz := strings.Index(out, "zeta_total")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Errorf("render not name-sorted:\n%s", out)
	}
}

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	h := r.Histogram("lat_ns", "", 10)
	c.Add(3)
	h.Observe(4)
	h.Observe(40)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 3\n",
		"# TYPE lat_ns histogram\n",
		"lat_ns_bucket{le=\"10\"} 1\n",
		"lat_ns_bucket{le=\"+Inf\"} 2\n",
		"lat_ns_sum 44\n",
		"lat_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestGaugeFunc: a GaugeFunc renders like a Gauge holding the same
// value, reads its source afresh at every render, and is called outside
// the registry lock (its read takes that lock, which would deadlock
// otherwise).
func TestGaugeFunc(t *testing.T) {
	held, fn := NewRegistry(), NewRegistry()
	held.Gauge("pool_bytes", "bytes resident").Set(3)
	src := int64(3)
	fn.GaugeFunc("pool_bytes", "bytes resident", func() int64 {
		fn.mu.Lock()
		defer fn.mu.Unlock()
		return src
	})
	var a, b strings.Builder
	if _, err := held.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := fn.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("GaugeFunc renders %q, Gauge %q", b.String(), a.String())
	}
	src = 9
	b.Reset()
	if _, err := fn.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pool_bytes 9\n") {
		t.Errorf("second render did not re-read the source:\n%s", b.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// TestConcurrentUpdates runs under -race in CI: concurrent observers
// and scrapers must not race.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("v_ns", "", 100, 10_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if _, err := r.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}
