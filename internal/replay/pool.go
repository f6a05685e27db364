package replay

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"sipt/internal/fault"
	"sipt/internal/vm"
)

// evictStorm is the pool's injection point: armed (e.g.
// "replay.pool.evict:1/64"), a seeded fraction of Gets behave as if the
// requested buffer was evicted in a race — the resident entry (if any)
// is dropped and the lookup fails with ErrEvicted. Callers
// (internal/exp) degrade to live generation instead of failing the run.
var evictStorm = fault.NewPoint("replay.pool.evict")

// ErrEvicted reports that the requested buffer was evicted before the
// caller could pin it. It is transient by nature: the trace is
// regenerable, so replay-aware callers fall back to live generation
// (and may repopulate the pool on a later request) rather than failing.
var ErrEvicted = errors.New("replay: buffer evicted under pressure")

// ErrOversize reports that the requested trace is longer than one
// shard's byte budget can retain. Materialising it would be pure waste
// (the buffer would be dropped the moment it was accounted), so Get
// refuses it up front and callers stream the trace live instead.
var ErrOversize = errors.New("replay: trace exceeds the pool's retainable size")

// Key identifies one materialised trace: the tuple that fully
// determines a synthetic record stream. Distinct seeds, lengths, or
// scenarios never alias.
type Key struct {
	App      string
	Scenario vm.Scenario
	Seed     int64
	Records  uint64
}

// Materializer builds the buffer for a key on a pool miss. It must be
// deterministic in the key; sim.Materialize is the canonical one.
type Materializer func(Key) (*Buffer, error)

// Stats is a point-in-time snapshot of pool effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups served from a resident buffer (including in-flight)
	Misses    uint64 // lookups that started a materialisation
	Evictions uint64 // buffers dropped to respect the byte budget
	Oversize  uint64 // keys refused with ErrOversize plus buffers dropped as over budget
	Entries   int    // resident buffers
	Bytes     int64  // resident payload bytes (always <= the budget)
}

// DefaultBudgetBytes bounds the pool when New is given a non-positive
// budget: 256 MiB holds the full 26-app figure set at the harness's
// default trace length (26 x 300k x 16 B = 125 MiB) with headroom for a
// second scenario.
const DefaultBudgetBytes = 256 << 20

// defaultPoolShards balances lock contention against budget
// granularity: buffers are megabytes each, so a few shards suffice.
const defaultPoolShards = 8

// poolEntry is one key's materialisation. The sync.Once provides
// singleflight: concurrent Gets of one key share a single generator
// pass.
type poolEntry struct {
	key  Key
	once sync.Once
	buf  *Buffer
	err  error
	// resident is set (under the shard lock) once the buffer completed
	// and its bytes are accounted; only resident entries are evictable.
	resident bool
}

// poolShard is one lock domain: lookup map plus an LRU list (front =
// most recently used) and the shard's slice of the byte budget.
type poolShard struct {
	mu     sync.Mutex
	items  map[Key]*list.Element
	order  *list.List
	budget int64
	bytes  int64
}

// Pool is the sharded, byte-budgeted trace cache. Failed
// materialisations are never cached: waiters observe the error, later
// Gets retry. The pool alone decides what it can hold: a key too long
// for a shard's budget is refused (ErrOversize), and a buffer that
// turns out larger than the budget anyway is returned to callers but
// not retained, so resident bytes never exceed the budget.
type Pool struct {
	shards    []poolShard
	mat       Materializer
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	oversize  atomic.Uint64
}

// NewPool creates a pool bounded to budgetBytes (non-positive =
// DefaultBudgetBytes) spread over nshards lock domains (non-positive =
// default). mat is required.
func NewPool(budgetBytes int64, nshards int, mat Materializer) *Pool {
	if mat == nil {
		panic("replay: NewPool requires a Materializer")
	}
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	if nshards <= 0 {
		nshards = defaultPoolShards
	}
	p := &Pool{shards: make([]poolShard, nshards), mat: mat}
	per := budgetBytes / int64(nshards)
	if per < 1 {
		per = 1
	}
	for i := range p.shards {
		p.shards[i].items = make(map[Key]*list.Element)
		p.shards[i].order = list.New()
		p.shards[i].budget = per
	}
	return p
}

// shardFor hashes the key with FNV-1a over its fields. A fixed hash
// keeps shard assignment — and therefore eviction order under pressure
// — identical across runs (the same determinism argument as
// memo.Cache).
func (p *Pool) shardFor(k Key) *poolShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.App); i++ {
		h ^= uint64(k.App[i])
		h *= prime64
	}
	for _, v := range [3]uint64{uint64(k.Scenario), uint64(k.Seed), k.Records} {
		for s := 0; s < 64; s += 8 {
			h ^= v >> s & 0xff
			h *= prime64
		}
	}
	return &p.shards[h%uint64(len(p.shards))]
}

// Get returns the materialised buffer for key, building it on first
// use. Concurrent Gets of the same key share one materialisation. A key
// whose Records exceed one shard's budget fails with ErrOversize
// without materialising; that check precedes both the fault draw and
// the hit/miss accounting. Under an armed replay.pool.evict fault, a
// seeded fraction of calls fail with ErrEvicted after dropping the
// key's resident buffer.
func (p *Pool) Get(key Key) (*Buffer, error) {
	s := p.shardFor(key)
	if key.Records > uint64(s.budget)/BytesPerRecord {
		p.oversize.Add(1)
		return nil, ErrOversize
	}
	if evictStorm.Fire() {
		p.dropResident(s, key)
		return nil, ErrEvicted
	}

	s.mu.Lock()
	el, ok := s.items[key]
	var e *poolEntry
	if ok {
		p.hits.Add(1)
		s.order.MoveToFront(el)
		e = el.Value.(*poolEntry)
	} else {
		p.misses.Add(1)
		e = &poolEntry{key: key}
		el = s.order.PushFront(e)
		s.items[key] = el
	}
	s.mu.Unlock()

	e.once.Do(func() {
		e.buf, e.err = p.mat(key)
		s.mu.Lock()
		cur, ok := s.items[e.key]
		if ok && cur.Value.(*poolEntry) == e {
			if e.err != nil {
				// Forget failures so the key can be retried.
				s.order.Remove(cur)
				delete(s.items, e.key)
			} else {
				if e.buf.Bytes() > s.budget {
					// The budget janitor will drop this entry on the spot:
					// the caller keeps its reference, but the pool declined
					// to retain it. Record that, it was silent before.
					p.oversize.Add(1)
				}
				e.resident = true
				s.bytes += e.buf.Bytes()
				p.enforceBudgetLocked(s)
			}
		}
		s.mu.Unlock()
	})
	return e.buf, e.err
}

// dropResident removes key's completed buffer from its shard,
// simulating an eviction race for the injected storm. In-flight entries
// are left alone: their bytes are not yet accounted, and yanking a
// shared singleflight mid-materialisation would fail other waiters too.
func (p *Pool) dropResident(s *poolShard, key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return
	}
	e := el.Value.(*poolEntry)
	if !e.resident {
		return
	}
	s.order.Remove(el)
	delete(s.items, key)
	s.bytes -= e.buf.Bytes()
	p.evictions.Add(1)
}

// enforceBudgetLocked evicts resident buffers, least recently used
// first, until the shard is within budget. In-flight entries carry no
// accounted bytes and are skipped. The most recently used entry is
// evictable too: a single buffer over budget is dropped immediately
// (callers keep their reference; the pool just declines to retain it).
func (p *Pool) enforceBudgetLocked(s *poolShard) {
	for el := s.order.Back(); el != nil && s.bytes > s.budget; {
		prev := el.Prev()
		e := el.Value.(*poolEntry)
		if e.resident {
			s.order.Remove(el)
			delete(s.items, e.key)
			s.bytes -= e.buf.Bytes()
			p.evictions.Add(1)
		}
		el = prev
	}
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Oversize:  p.oversize.Load(),
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		for el := s.order.Front(); el != nil; el = el.Next() {
			if el.Value.(*poolEntry).resident {
				st.Entries++
			}
		}
		s.mu.Unlock()
	}
	return st
}
