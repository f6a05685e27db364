// Package memo is a sharded, size-capped memoisation cache with
// singleflight semantics: concurrent lookups of the same key share one
// computation, completed values are kept in per-shard LRU order, and
// the total entry count is bounded so a long-lived process (the siptd
// daemon, or a sweep harness run in a loop) cannot leak memory through
// an ever-growing result map.
//
// Errors are deliberately not cached: a computation that fails — most
// importantly one cancelled through its context — is forgotten, so the
// next request for the same key retries instead of replaying a stale
// ctx.Canceled forever.
package memo

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sipt/internal/fault"
)

// computeFault is the cache's injection point: armed (e.g.
// "memo.compute.err:1/8"), a seeded fraction of computes fail with a
// transient error instead of running. Because errors are never cached,
// this exercises exactly the forget-and-retry path — waiters observe
// the injected error, the next Do of the key recomputes.
var computeFault = fault.NewPoint("memo.compute.err")

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups that found a live entry (including in-flight)
	Misses    uint64 // lookups that created a new entry
	Evictions uint64 // completed entries dropped to respect the capacity
	Entries   int    // current live entries across all shards
}

// entry is one key's computation. The sync.Once provides singleflight:
// every caller that finds the entry waits on the same Do, and exactly
// one of them executes the compute function.
type entry[V any] struct {
	key  string
	once sync.Once
	val  V
	err  error
	// done is set (with release semantics) after the compute finished;
	// Get uses it to peek at completed values without joining the
	// singleflight.
	done atomic.Bool
}

// shard is one lock domain: a lookup map plus an LRU list whose front
// is most recently used. list elements hold *entry[V].
type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List
	cap   int
}

// Cache is the sharded cache. The zero value is not usable; construct
// with New.
type Cache[V any] struct {
	shards    []shard[V]
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// DefaultCapacity is the total entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// defaultShards balances lock contention against per-shard capacity
// granularity; sixteen is plenty for the worker counts the scheduler
// runs.
const defaultShards = 16

// New creates a cache bounded to roughly capacity entries, spread over
// nshards lock domains (both fall back to defaults when non-positive).
// The per-shard bound is capacity/nshards, at least one.
func New[V any](capacity, nshards int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if nshards <= 0 {
		nshards = defaultShards
	}
	if nshards > capacity {
		nshards = capacity
	}
	per := capacity / nshards
	if per < 1 {
		per = 1
	}
	c := &Cache[V]{shards: make([]shard[V], nshards)}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

// shardFor hashes the key with FNV-1a. A fixed hash (rather than a
// per-process seeded one) keeps shard assignment — and therefore
// eviction order under pressure — identical across runs.
func (c *Cache[V]) shardFor(k string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Do returns the memoised value for key, computing it with compute on
// first use. Concurrent calls for the same key share one compute
// (singleflight). A compute that returns an error is not retained:
// current waiters observe the error, later callers retry.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	s := c.shardFor(key)

	s.mu.Lock()
	el, ok := s.items[key]
	var e *entry[V]
	if ok {
		c.hits.Add(1)
		s.order.MoveToFront(el)
		e = el.Value.(*entry[V])
	} else {
		c.misses.Add(1)
		e = &entry[V]{key: key}
		el = s.order.PushFront(e)
		s.items[key] = el
		for s.order.Len() > s.cap {
			// Evict from the back, skipping the entry just inserted (it
			// is at the front, so only reachable when cap == 1 and the
			// list still holds an older element).
			back := s.order.Back()
			if back == el {
				break
			}
			s.order.Remove(back)
			delete(s.items, back.Value.(*entry[V]).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()

	e.once.Do(func() {
		if ferr := computeFault.Err(); ferr != nil {
			e.err = ferr
		} else {
			e.val, e.err = compute()
		}
		e.done.Store(true)
		if e.err != nil {
			// Forget failed computations so the key can be retried.
			s.mu.Lock()
			if cur, ok := s.items[e.key]; ok && cur.Value.(*entry[V]) == e {
				s.order.Remove(cur)
				delete(s.items, e.key)
			}
			s.mu.Unlock()
		}
	})
	return e.val, e.err
}

// Get peeks at a completed entry without joining its singleflight: it
// returns (value, true) only when key's computation has already
// finished successfully, refreshing the entry's LRU position. In-flight
// or absent keys return (zero, false) immediately — callers that batch
// work (exp.Runner.RunConfigs) use this to partition keys into cached
// and to-compute without blocking on someone else's computation.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[V])
		if e.done.Load() && e.err == nil {
			s.order.MoveToFront(el)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Len returns the current number of live entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
