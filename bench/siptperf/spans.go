package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the harness makes into the
// program. Spans of one request share Req (the siptd job ID). A derived
// span was not observed directly but placed from a value the program
// reported (server.run, from the job's elapsed_ms); it is excluded from
// its parent's self-time accounting.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths
// differ from the traced ones only by a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the trace clock in ns (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartNS: start, EndNS: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// setReq labels span id with a request ID learned after it opened.
func (t *tracer) setReq(id int, req string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Req = req
	t.mu.Unlock()
}

// derive records a span placed from a reported duration rather than
// observed: it ends at endNS and is clipped to start no earlier than
// its parent.
func (t *tracer) derive(name string, parent int, req string, endNS int64, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := endNS - dur.Nanoseconds()
	if parent != 0 && start < t.spans[parent-1].StartNS {
		start = t.spans[parent-1].StartNS
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartNS: start, EndNS: endNS, Derived: true})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanRow aggregates every span of one name. Self time is a span's
// duration minus the part of it its observed children cover, so for
// each span self + covered-by-children == duration exactly.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// selfTimes returns each span's self time in ns, indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && !s.Derived {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.EndNS - s.StartNS) - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// the parent, so overlapping children (concurrent calls) count once.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanTable aggregates spans by name, sorted by total time.
func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	byName := make(map[string]*spanRow)
	durs := make(map[string][]float64)
	var names []string
	for i, s := range spans {
		if s.EndNS < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &spanRow{Name: s.Name}
			byName[s.Name] = r
			names = append(names, s.Name)
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		r.Count++
		r.TotalMS += d
		r.SelfMS += float64(self[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
	}
	rows := make([]spanRow, 0, len(names))
	for _, n := range names {
		r := byName[n]
		r.P50MS = quantile(durs[n], 0.5)
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMS > rows[j].TotalMS })
	return rows
}

func printSpanTable(w io.Writer, rows []spanRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %10.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.P50MS)
	}
}
