package memo

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// fv is a fuzzed value: an identity plus the cost it charges.
type fv struct {
	id   int
	cost int64
}

var errFuzz = errors.New("fuzz: compute failed")

// refLRU is the plain reference for one shard: a map plus a slice in
// LRU order (index 0 = most recently used), 64-bit counters, no
// sharding, no singleflight (operations are sequential).
type refLRU struct {
	budget int64
	unit   bool // every value costs 1 (New) instead of its own cost
	order  []string
	vals   map[string]fv
	cost   int64

	hits, misses, evictions, oversize uint64
}

func (r *refLRU) costOf(v fv) int64 {
	if r.unit {
		return 1
	}
	return v.cost
}

func (r *refLRU) touch(key string) {
	i := slices.Index(r.order, key)
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, key)
}

func (r *refLRU) drop(key string) {
	i := slices.Index(r.order, key)
	r.order = slices.Delete(r.order, i, i+1)
	r.cost -= r.costOf(r.vals[key])
	delete(r.vals, key)
	r.evictions++
}

// do mirrors Cache.Do with a compute that returns (v, err); it reports
// whether the compute would run.
func (r *refLRU) do(key string, v fv, err error) (fv, error, bool) {
	if got, ok := r.vals[key]; ok {
		r.hits++
		r.touch(key)
		return got, nil, false
	}
	r.misses++
	if err != nil {
		return v, err, true
	}
	if r.costOf(v) > r.budget {
		r.oversize++
		return v, nil, true
	}
	r.order = slices.Insert(r.order, 0, key)
	r.vals[key] = v
	r.cost += r.costOf(v)
	for r.cost > r.budget {
		r.drop(r.order[len(r.order)-1])
	}
	return v, nil, true
}

func (r *refLRU) get(key string) (fv, bool) {
	v, ok := r.vals[key]
	if ok {
		r.touch(key)
	}
	return v, ok
}

func (r *refLRU) evict(key string) {
	if _, ok := r.vals[key]; ok {
		r.drop(key)
	}
}

// resident lists a one-shard cache's keys front (MRU) to back.
func resident[V any](c *Cache[V]) []string {
	var keys []string
	for el := c.shards[0].order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// FuzzCacheMatchesReference drives a one-shard cache and refLRU with the
// same byte-decoded sequence of Do (success or error, with a per-value
// cost), Get and Evict, and compares every answer, every counter, and
// the resident key set in LRU order with its total cost after each
// operation. unit selects New (every value costs 1, the result memo)
// over NewCosted (each value charges its own cost, the trace pool).
func FuzzCacheMatchesReference(f *testing.F) {
	// The budget argument is one less than the shard budget. Result-memo
	// geometries from memo_test.go: 8, 16 and 1 entries per shard.
	f.Add(uint8(7), true, []byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 2, 1, 0, 0, 9, 1, 1, 4, 1, 3, 2, 0, 0, 1, 1})
	f.Add(uint8(15), true, []byte{0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 3, 1, 2, 2, 0})
	f.Add(uint8(0), true, []byte{0, 1, 1, 0, 2, 1, 0, 1, 1, 2, 2, 0, 3, 2, 0, 0, 2, 1})
	// Trace-pool geometries from replay_test.go, scaled down: two 4 KiB
	// buffers per 8 KiB shard, and a 64-record shard that refuses a
	// 1024-record buffer but keeps a one-record one.
	f.Add(uint8(1), false, []byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 1, 1, 3, 3, 0, 0, 3, 1, 2, 1, 0})
	f.Add(uint8(63), false, []byte{0, 1, 255, 0, 2, 255, 0, 3, 1, 1, 4, 1, 0, 4, 1, 2, 3, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, budget uint8, unit bool, ops []byte) {
		var c *Cache[fv]
		if unit {
			c = New[fv](int(budget)+1, 1)
		} else {
			c = NewCosted(int64(budget)+1, 1, func(v fv) int64 { return v.cost })
		}
		ref := &refLRU{budget: int64(budget) + 1, unit: unit, vals: make(map[string]fv)}
		for i := 0; i+2 < len(ops) && i < 3*256; i += 3 {
			op, key, arg := ops[i]%4, fmt.Sprintf("k%d", ops[i+1]%8), ops[i+2]
			switch op {
			case 0, 1: // Do, succeeding (0) or failing (1)
				var err error
				if op == 1 {
					err = errFuzz
				}
				v := fv{id: i, cost: int64(arg)}
				want, wantErr, wantRun := ref.do(key, v, err)
				ran := false
				got, gotErr := c.Do(key, func() (fv, error) { ran = true; return v, err })
				if got != want || gotErr != wantErr || ran != wantRun {
					t.Fatalf("op %d: Do(%s) = %+v, %v (ran %v); reference %+v, %v (ran %v)",
						i/3, key, got, gotErr, ran, want, wantErr, wantRun)
				}
			case 2:
				want, wantOK := ref.get(key)
				if got, ok := c.Get(key); got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%s) = %+v, %v; reference %+v, %v", i/3, key, got, ok, want, wantOK)
				}
			case 3:
				ref.evict(key)
				c.Evict(key)
			}
			st := c.Stats()
			want := Stats{Hits: ref.hits, Misses: ref.misses, Evictions: ref.evictions,
				Oversize: ref.oversize, Entries: len(ref.order), Cost: ref.cost}
			if st != want {
				t.Fatalf("op %d: stats %+v, reference %+v", i/3, st, want)
			}
			if keys := resident(c); !slices.Equal(keys, ref.order) {
				t.Fatalf("op %d: resident %v, reference %v", i/3, keys, ref.order)
			}
		}
	})
}
