// Package memo is the module's one sharded, budgeted memoisation cache
// with singleflight semantics: concurrent lookups of the same key share
// one computation, and completed values are kept in per-shard LRU order
// under a cost budget, so a long-lived process (the siptd daemon) cannot
// leak memory. A value is charged cost(v) when its compute succeeds: 1
// in the result memo (New), its bytes in the trace pool (NewCosted, from
// internal/replay). In-flight computations are neither charged nor
// evictable, so eviction never splits a singleflight.
//
// Errors are deliberately not cached: a computation that fails — most
// importantly one cancelled through its context — is forgotten, so the
// next request for the same key retries instead of replaying a stale
// ctx.Canceled forever.
package memo

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"sipt/internal/fault"
)

// computeFault is the result memo's injection point: armed (e.g.
// "memo.compute.err:1/8"), a seeded fraction of computes fail with a
// transient error instead of running. Because errors are never cached,
// this exercises exactly the forget-and-retry path — waiters observe
// the injected error, the next Do of the key recomputes.
var computeFault = fault.NewPoint("memo.compute.err")

// errPanicked is what a panicking compute's waiters observe; like any
// error, it is forgotten, so the next Do of the key retries.
var errPanicked = errors.New("memo: compute panicked")

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // Do calls that found an entry (including in-flight)
	Misses    uint64 // Do calls that started a computation
	Evictions uint64 // resident values dropped by the budget or Evict
	Oversize  uint64 // completed values whose cost alone exceeded the shard budget
	Entries   int    // resident (completed) values across all shards
	Cost      int64  // summed cost of the resident values
}

// entry is one key's computation. The sync.Once provides singleflight:
// every caller that finds the entry waits on the same Do, and exactly
// one of them executes the compute function.
type entry[V any] struct {
	key  string
	once sync.Once
	val  V
	err  error
	cost int64
	el   *list.Element // LRU element once resident (shard lock); nil in flight
}

// shard is one lock domain: a map of in-flight and resident entries, an
// LRU list of the resident ones (front = most recently used) and their
// summed cost.
type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*entry[V]
	order *list.List
	cost  int64
}

// Cache is the sharded cache. The zero value is not usable; construct
// with New or NewCosted.
type Cache[V any] struct {
	shards    []shard[V]
	budget    int64 // per shard
	cost      func(V) int64
	fault     *fault.Point // drawn once per executed compute; nil = none
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	oversize  atomic.Uint64
}

// DefaultCapacity is the total entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// defaultShards balances lock contention against per-shard capacity
// granularity; sixteen is plenty for the worker counts the scheduler
// runs.
const defaultShards = 16

// New creates a result memo bounded to roughly capacity entries (each
// value costs 1) over nshards lock domains (both default when
// non-positive). Each executed compute first draws memo.compute.err.
func New[V any](capacity, nshards int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := NewCosted(int64(capacity), nshards, func(V) int64 { return 1 })
	c.fault = computeFault
	return c
}

// NewCosted creates a cache bounding its resident values' summed cost(v)
// to budget over nshards lock domains (non-positive = default, at most
// budget), each with budget/nshards (at least 1). It draws no fault.
func NewCosted[V any](budget int64, nshards int, cost func(V) int64) *Cache[V] {
	if nshards <= 0 {
		nshards = defaultShards
	}
	if int64(nshards) > budget {
		nshards = int(max(budget, 1))
	}
	c := &Cache[V]{shards: make([]shard[V], nshards), budget: max(budget/int64(nshards), 1), cost: cost}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*entry[V])
		c.shards[i].order = list.New()
	}
	return c
}

// ShardBudget returns one shard's cost budget: the largest value cost
// the cache can retain.
func (c *Cache[V]) ShardBudget() int64 { return c.budget }

// shardFor hashes the key with FNV-1a. A fixed hash (rather than a
// per-process seeded one) keeps shard assignment — and therefore
// eviction order under pressure — identical across runs.
func (c *Cache[V]) shardFor(k string) *shard[V] {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Do returns the memoised value for key, computing it with compute on
// first use. Concurrent calls for the same key share one compute
// (singleflight), however much else the shard evicts meanwhile. A
// compute that returns an error is not retained: current waiters
// observe the error, later callers retry. A value costing more than the
// shard budget is returned but not retained.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		c.hits.Add(1)
		if e.el != nil {
			s.order.MoveToFront(e.el)
		}
	} else {
		c.misses.Add(1)
		e = &entry[V]{key: key}
		s.items[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		e.err = errPanicked // overwritten unless compute panics
		defer c.settle(s, e)
		var err error
		if c.fault != nil {
			err = c.fault.Err()
		}
		if err == nil {
			e.val, err = compute()
		}
		e.err = err
	})
	return e.val, e.err
}

// settle retires a finished compute: failures and oversize values leave
// the map; anything else is charged, goes to the LRU front, and evicts
// from the back until the shard is within budget.
func (c *Cache[V]) settle(s *shard[V], e *entry[V]) {
	if e.err == nil {
		e.cost = c.cost(e.val)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.err != nil:
		delete(s.items, e.key)
	case e.cost > c.budget:
		c.oversize.Add(1)
		delete(s.items, e.key)
	default:
		e.el = s.order.PushFront(e)
		s.cost += e.cost
		for s.cost > c.budget {
			c.dropLocked(s, s.order.Back().Value.(*entry[V]))
		}
	}
}

// dropLocked evicts one resident entry.
func (c *Cache[V]) dropLocked(s *shard[V], e *entry[V]) {
	s.order.Remove(e.el)
	delete(s.items, e.key)
	s.cost -= e.cost
	c.evictions.Add(1)
}

// Evict drops key's resident value as if the budget had pushed it out.
// An in-flight compute is left alone: yanking a shared singleflight
// would fail its other waiters too.
func (c *Cache[V]) Evict(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok && e.el != nil {
		c.dropLocked(s, e)
	}
}

// Get peeks at a resident value without joining its singleflight,
// refreshing its LRU position. In-flight or absent keys return (zero,
// false) at once: batching callers (exp.Runner.RunConfigs) partition
// keys into cached and to-compute without blocking on others' computes.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok && e.el != nil {
		s.order.MoveToFront(e.el)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Oversize: c.oversize.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.order.Len()
		st.Cost += s.cost
		s.mu.Unlock()
	}
	return st
}
