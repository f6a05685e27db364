// Package metrics provides the small, allocation-light instrumentation
// primitives the siptd service exposes on /metrics: atomic counters and
// gauges, and fixed-bucket histograms. It deliberately contains no
// clock: callers observe durations they measured themselves, so nothing
// in this package (or in code that merely updates metrics) can smuggle
// wall-clock reads into simulation logic — the detrand analyzer's
// contract stays intact.
//
// A Registry renders the Prometheus text exposition format. Rendering
// is deterministic: metrics are kept in a name-sorted slice (never
// iterated through a map), so two scrapes of the same state are
// byte-identical.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// A Gauge is an atomic value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// A Histogram counts observations into fixed buckets with inclusive
// upper bounds, plus a +Inf overflow bucket, a sum, and a count. All
// updates are atomic; Observe never allocates.
type Histogram struct {
	bounds  []int64 // ascending inclusive upper bounds
	buckets []atomic.Uint64
	sum     atomic.Int64
	count   atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. It panics on unsorted or empty bounds (a misconfigured
// histogram is a programming error).
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// metric is one registered name: exactly one of c, g and h is set. A
// gauge is rendered by calling g, so a Gauge and a GaugeFunc look the
// same on /metrics.
type metric struct {
	name string
	help string
	c    *Counter
	g    func() int64
	h    *Histogram
}

// A Registry owns named metrics and renders them deterministically.
// Lookups go through a map; iteration only ever walks the name-sorted
// slice.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric // sorted by name
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register inserts m sorted by name, or panics on a duplicate/invalid
// name — metric registration happens at service construction, where a
// collision is a programming error.
func (r *Registry) register(m *metric) {
	if m.name == "" || strings.ContainsAny(m.name, " \n\"{}") {
		panic(fmt.Sprintf("metrics: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].name >= m.name })
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = m
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, c: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, g: g.Load})
	return g
}

// GaugeFunc registers a gauge whose value is read by calling read at
// each render, outside the registry lock. It exposes a number another
// component already keeps, without a copy that could go stale. read
// must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, read func() int64) {
	r.register(&metric{name: name, help: help, g: read})
}

// Histogram registers and returns a new histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds ...int64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(&metric{name: name, help: help, h: h})
	return h
}

// WriteTo renders every metric in the Prometheus text exposition
// format, in name order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	ordered := make([]*metric, len(r.ordered))
	copy(ordered, r.ordered)
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ordered {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.c.Load())
		case m.g != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.g())
		case m.h != nil:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			var cum uint64
			for i, bound := range m.h.bounds {
				cum += m.h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m.name, bound, cum)
			}
			cum += m.h.buckets[len(m.h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %d\n", m.name, m.h.Sum())
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
