package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sipt/internal/fault"
	"sipt/internal/metrics"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// ErrNoWorkers is returned when every worker has been ejected: the
// fabric has nowhere left to route a shard.
var ErrNoWorkers = errors.New("fabric: no live workers")

// Config sizes a Coordinator.
type Config struct {
	// Workers are the worker daemons' base URLs ("http://host:port").
	// Required, at least one.
	Workers []string
	// Registry receives fabric metrics (nil = a fresh registry).
	Registry *metrics.Registry
	// EjectAfter is the consecutive-failure count at which a worker is
	// ejected from the ring (0 = 3). The client's in-place retries
	// count as one dispatch: a worker is only charged when a whole
	// dispatch, retries included, fails.
	EjectAfter int
	// ShardTimeout bounds one shard dispatch, submit through collect
	// (0 = 5m). A dispatch that exceeds it is treated like a transient
	// failure: charged to the worker and re-routed.
	ShardTimeout time.Duration
	// Poll is the shard status poll interval (0 = client default).
	Poll time.Duration
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// Coordinator routes shards to a fleet of workers by trace affinity,
// tracks worker health, and ejects workers that keep failing; ejected
// workers earn a half-open probe after a cooldown, so a healed worker
// rejoins with its trace affinity intact rather than staying ejected
// forever. It
// implements exp.Remote, so an exp.Runner built with Options.Remote
// delegates every simulation batch to the fleet while keeping all
// merging local. Safe for concurrent use.
type Coordinator struct {
	ejectAfter   int
	shardTimeout time.Duration
	names        []string // all configured workers, sorted; never shrinks

	mu     sync.Mutex
	ring   *Ring
	byName map[string]*workerState

	shardsTotal    *metrics.Counter
	shardsRetried  *metrics.Counter
	shardsRerouted *metrics.Counter
	shardsFailed   *metrics.Counter
	shardsInflight *metrics.Gauge
	workerFailures *metrics.Counter
	workersEjected *metrics.Counter
	workersProbed  *metrics.Counter
	workersRevived *metrics.Counter
	workersLive    *metrics.Gauge
}

type workerState struct {
	client    *Client
	fails     int // consecutive failed dispatches
	ejected   bool
	probing   bool      // in the half-open window: re-admitted, unproven
	ejectedAt time.Time // when the last ejection happened
}

// probeAfter is the cooldown after which an ejected worker earns a
// half-open probe: it rejoins the ring with one failure of credit, so
// the next dispatch routed to it is the probe — success restores a
// clean slate (and its trace affinity, since its ring points come
// back), a single failure re-ejects it for another cooldown.
const probeAfter = 30 * time.Second

// now is the coordinator's health clock: it times the ejection
// cooldown, never simulation state, and tests swap it to step the
// half-open window without sleeping.
//
//siptlint:allow detrand: worker-health cooldown timing, never feeds simulation results
var now = time.Now

// NewCoordinator builds a coordinator over cfg.Workers.
func NewCoordinator(cfg Config) *Coordinator {
	if len(cfg.Workers) == 0 {
		panic("fabric: Config.Workers is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ejectAfter := cfg.EjectAfter
	if ejectAfter <= 0 {
		ejectAfter = 3
	}
	shardTimeout := cfg.ShardTimeout
	if shardTimeout <= 0 {
		shardTimeout = 5 * time.Minute
	}
	c := &Coordinator{
		ejectAfter:   ejectAfter,
		shardTimeout: shardTimeout,
		ring:         NewRing(cfg.Workers),
		byName:       make(map[string]*workerState, len(cfg.Workers)),

		shardsTotal:    reg.Counter("fabric_shards_total", "shards dispatched to workers"),
		shardsRetried:  reg.Counter("fabric_shards_retried_total", "in-place shard retries on the same worker"),
		shardsRerouted: reg.Counter("fabric_shards_rerouted_total", "shards re-routed to another worker after a failed dispatch"),
		shardsFailed:   reg.Counter("fabric_shards_failed_total", "shards failed permanently"),
		shardsInflight: reg.Gauge("fabric_shards_inflight", "shards currently dispatched"),
		workerFailures: reg.Counter("fabric_worker_failures_total", "failed dispatches charged to workers"),
		workersEjected: reg.Counter("fabric_workers_ejected_total", "workers ejected from the ring"),
		workersProbed:  reg.Counter("fabric_workers_probed_total", "half-open probes granted to ejected workers after cooldown"),
		workersRevived: reg.Counter("fabric_workers_revived_total", "ejected workers re-admitted after a successful probe"),
		workersLive:    reg.Gauge("fabric_workers_live", "workers currently in the ring"),
	}
	c.names = append(c.names, c.ring.Workers()...)
	for _, w := range c.names {
		c.byName[w] = &workerState{client: NewClient(w, cfg.HTTP, cfg.Poll)}
		c.byName[w].client.OnRetry = c.shardsRetried.Inc
	}
	c.workersLive.Set(int64(c.ring.Len()))
	return c
}

// Live returns the names of workers still in the ring, sorted.
func (c *Coordinator) Live() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, c.ring.Len())
	copy(out, c.ring.Workers())
	return out
}

// RunConfigs executes one shard — cfgs against app's (sc, seed,
// records) trace — on the fleet and returns the stats positionally.
// The shard routes to its affinity owner first; a failed dispatch
// (transient error after the client's in-place retries, or a shard
// deadline) charges the worker and re-routes the shard along the ring
// sequence, ejecting workers that reach the consecutive-failure limit.
// It is the exp.Remote implementation.
func (c *Coordinator) RunConfigs(ctx context.Context, app string, sc vm.Scenario,
	seed int64, records uint64, cfgs []sim.Config) ([]sim.Stats, error) {

	if len(cfgs) == 0 {
		return nil, nil
	}
	key := TraceKey{App: app, Scenario: sc.String(), Seed: seed, Records: records}
	req := ShardRequest{
		App:      app,
		Scenario: key.Scenario,
		Seed:     seed,
		Records:  records,
		Timeout:  c.shardTimeout.Milliseconds(),
		Configs:  cfgs,
	}
	c.shardsTotal.Inc()
	c.shardsInflight.Add(1)
	defer c.shardsInflight.Add(-1)

	// avoid holds workers that already failed this shard; when every
	// live worker has failed it once, a new lap starts (clear, never
	// range: detrand).
	avoid := make(map[string]bool)
	rerouted := false
	for {
		w, err := c.pick(key, avoid)
		if err != nil {
			c.shardsFailed.Inc()
			return nil, err
		}
		if rerouted {
			c.shardsRerouted.Inc()
		}
		attemptCtx, cancel := context.WithTimeout(ctx, c.shardTimeout)
		stats, err := w.client.RunShard(attemptCtx, req)
		cancel()
		if err == nil {
			c.noteOK(w.client.Base())
			return stats, nil
		}
		if ctx.Err() != nil {
			// The sweep itself is over; don't charge the worker.
			return nil, ctx.Err()
		}
		if !reroutable(err) {
			c.shardsFailed.Inc()
			return nil, err
		}
		c.noteFail(w.client.Base())
		avoid[w.client.Base()] = true
		rerouted = true
	}
}

// reroutable reports whether a dispatch failure is worth another
// worker: transient failures and shard deadlines are; permanent
// protocol errors are not.
func reroutable(err error) bool {
	return fault.IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
}

// pick selects the first worker along key's ring sequence not in
// avoid. When every live worker is in avoid the lap restarts — the
// shard keeps cycling the survivors until the sweep context expires or
// the ring empties.
func (c *Coordinator) pick(key TraceKey, avoid map[string]bool) (*workerState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maybeRevive()
	if c.ring.Len() == 0 {
		// Permanent is transparent (message and errors.Is(.., ErrNoWorkers)
		// unchanged): an empty ring cannot heal within this sweep.
		return nil, fault.Permanent(fmt.Errorf("%w: all %d ejected", ErrNoWorkers, len(c.byName)))
	}
	seq := c.ring.Sequence(key)
	for _, name := range seq {
		if !avoid[name] {
			return c.byName[name], nil
		}
	}
	clear(avoid)
	return c.byName[seq[0]], nil
}

// maybeRevive grants a half-open probe to every ejected worker whose
// cooldown has passed: it rejoins the ring carrying ejectAfter-1
// failures, so one failed dispatch re-ejects it immediately while a
// success (noteOK) wipes the slate. Re-adding restores the worker's
// original ring points, so its old keys route back to it — affinity
// survives the outage. Called under c.mu.
func (c *Coordinator) maybeRevive() {
	t := now()
	for _, name := range c.names {
		w := c.byName[name]
		if !w.ejected || t.Sub(w.ejectedAt) < probeAfter {
			continue
		}
		w.ejected = false
		w.probing = true
		w.fails = c.ejectAfter - 1
		c.ring.Add(name)
		c.workersProbed.Inc()
		c.workersLive.Set(int64(c.ring.Len()))
	}
}

// noteOK resets a worker's consecutive-failure count; a worker on a
// half-open probe graduates back to full membership.
func (c *Coordinator) noteOK(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.byName[name]; w != nil {
		if w.probing {
			w.probing = false
			c.workersRevived.Inc()
		}
		w.fails = 0
	}
}

// noteFail charges a failed dispatch to a worker and ejects it from
// the ring once it reaches the consecutive-failure limit. Ejection
// deletes only that worker's ring points, so surviving workers keep
// their assignments (minimal reshuffle).
func (c *Coordinator) noteFail(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.byName[name]
	if w == nil || w.ejected {
		return
	}
	c.workerFailures.Inc()
	w.fails++
	if w.fails >= c.ejectAfter {
		w.ejected = true
		w.probing = false
		w.ejectedAt = now()
		c.ring.Remove(name)
		c.workersEjected.Inc()
		c.workersLive.Set(int64(c.ring.Len()))
	}
}
