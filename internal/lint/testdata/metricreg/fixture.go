// Package fixturesim exercises the metricreg analyzer: metric names
// are constant, lowercase, and registered exactly once. The Registry
// type stands in for metrics.Registry (fixtures cannot import
// module-internal packages; the analyzer matches by receiver type
// name).
package fixturesim

import "fmt"

type Registry struct{}

func (r *Registry) Counter(name, help string) int                  { return 0 }
func (r *Registry) Gauge(name, help string) int                    { return 0 }
func (r *Registry) GaugeFunc(name, help string, read func() int64) {}
func (r *Registry) Histogram(name, help string, bounds ...int64) int {
	return 0
}

const prefix = "serve"

func registerGood(reg *Registry) {
	reg.Counter("jobs_total", "jobs")
	reg.Gauge("queue_depth", "depth")
	reg.Gauge(prefix+"_depth", "constant expressions are fine")
	reg.Histogram("job_latency_ms", "latency", 1, 10, 100)
	reg.GaugeFunc("pool_bytes", "read at scrape time", func() int64 { return 0 })
}

// registerDynamic reconstructs the historical bug class: a per-worker
// suffix in a metric name makes merged fleet reports unmergeable.
func registerDynamic(reg *Registry, worker int) {
	reg.Counter(fmt.Sprintf("jobs_total_%d", worker), "per-worker jobs") // want "compile-time-constant string"
}

func registerBadName(reg *Registry) {
	reg.Counter("Jobs-Total", "exposition format wants lower_snake")   // want "must match"
	reg.GaugeFunc("Pool-Bytes", "gauges read at scrape time too", nil) // want "must match"
}

func registerDup(reg *Registry) {
	reg.Counter("dup_total", "first registration")
	reg.Counter("dup_total", "second registration")                            // want "already registered"
	reg.GaugeFunc("dup_total", "a third, as a gauge read at scrape time", nil) // want "already registered"
}
