package replay

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sipt/internal/fault"
	"sipt/internal/memo"
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

// Pool is the byte-budgeted trace cache: a memo.Cache charging each
// buffer its bytes, so materialisations are singleflight and failures
// are never cached. The pool alone decides what it holds: a key too long
// for a shard's budget is refused (ErrOversize), and a buffer larger
// than the budget anyway is returned to callers but not retained.
type Pool struct {
	cache   *memo.Cache[*Buffer]
	mat     Materializer
	refused atomic.Uint64 // keys answered ErrOversize
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
	return &Pool{cache: memo.NewCosted(budgetBytes, nshards, (*Buffer).Bytes), mat: mat}
}

// cacheKey renders a Key for the cache; App is quoted so no app name
// can alias another key.
//
//sipt:memokey
func cacheKey(k Key) string {
	return fmt.Sprintf("%q|%d|%d|%d", k.App, k.Scenario, k.Seed, k.Records)
}

// Get returns the materialised buffer for key, building it on first
// use. A key whose Records exceed one shard's budget fails with
// ErrOversize before the fault draw and the hit/miss accounting. Under
// an armed replay.pool.evict fault, a seeded fraction of calls fail with
// ErrEvicted after dropping the key's resident buffer.
func (p *Pool) Get(key Key) (*Buffer, error) {
	if key.Records > uint64(p.cache.ShardBudget())/BytesPerRecord {
		p.refused.Add(1)
		return nil, ErrOversize
	}
	k := cacheKey(key)
	if evictStorm.Fire() {
		p.cache.Evict(k)
		return nil, ErrEvicted
	}
	return p.cache.Do(k, func() (*Buffer, error) { return p.mat(key) })
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	st := p.cache.Stats()
	return Stats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Oversize: p.refused.Load() + st.Oversize, Entries: st.Entries, Bytes: st.Cost}
}
