package fabric

import (
	"fmt"
	"sort"
)

// replicas is the virtual-node count per worker. 64 points per
// worker keeps the largest/smallest arc ratio low enough that a
// handful of workers split a 33-workload grid roughly evenly, while a
// full ring rebuild (tens of workers × 64 points) stays microseconds.
const replicas = 64

// Ring is a consistent-hash ring over worker names. Each worker owns
// replicas virtual points; a key routes to the worker owning the first
// point at or clockwise of the key's hash. Removing a worker deletes
// only that worker's points, so every key either keeps its assignment
// or moves to a surviving worker — never between survivors. The ring
// is deterministic: the same workers always produce the same point set
// regardless of insertion order.
//
// Ring is not safe for concurrent mutation; the Coordinator guards it
// with its own mutex.
type Ring struct {
	points  []point  // sorted by (hash, worker)
	workers []string // sorted member names
}

type point struct {
	hash   uint64
	worker string
}

// NewRing builds a ring over workers. Duplicate names collapse to one
// membership.
func NewRing(workers []string) *Ring {
	r := &Ring{}
	for _, w := range workers {
		r.Add(w)
	}
	return r
}

// Add inserts a worker; adding a present member is a no-op.
func (r *Ring) Add(worker string) {
	i := sort.SearchStrings(r.workers, worker)
	if i < len(r.workers) && r.workers[i] == worker {
		return
	}
	r.workers = append(r.workers, "")
	copy(r.workers[i+1:], r.workers[i:])
	r.workers[i] = worker
	for v := 0; v < replicas; v++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", worker, v)), worker: worker})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].worker < r.points[b].worker
	})
}

// Remove ejects a worker, deleting only its points: assignments of
// surviving workers are untouched by construction. Removing an absent
// member is a no-op.
func (r *Ring) Remove(worker string) {
	i := sort.SearchStrings(r.workers, worker)
	if i >= len(r.workers) || r.workers[i] != worker {
		return
	}
	r.workers = append(r.workers[:i], r.workers[i+1:]...)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the current member count.
func (r *Ring) Len() int { return len(r.workers) }

// Workers returns the members in sorted-name order. The caller must
// not mutate the returned slice.
func (r *Ring) Workers() []string { return r.workers }

// Lookup returns the worker owning key, or "" when the ring is empty.
func (r *Ring) Lookup(key TraceKey) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].worker
}

// Sequence returns every member in the order the ring would try them
// for key: the owner first, then each next distinct worker clockwise.
// It is the re-route order — skipping a prefix of the sequence is
// exactly what removing those workers from the ring would assign.
func (r *Ring) Sequence(key TraceKey) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.workers))
	seen := make(map[string]bool, len(r.workers))
	start := r.search(key)
	for i := 0; i < len(r.points) && len(seq) < len(r.workers); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			seq = append(seq, p.worker)
		}
	}
	return seq
}

// search returns the index of the first point at or clockwise of key's
// hash.
func (r *Ring) search(key TraceKey) int {
	h := hash64(key.String())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Assignment is one worker's slice of a partitioned key set.
type Assignment struct {
	Worker string
	Keys   []TraceKey
}

// Partition groups keys by their ring owner. Assignments come back in
// the ring's sorted-worker order with each worker's keys in input
// order, so the same grid always partitions identically — the property
// the affinity tests pin down. Workers with no keys are omitted.
func Partition(r *Ring, keys []TraceKey) []Assignment {
	byWorker := make(map[string][]TraceKey, r.Len())
	for _, k := range keys {
		w := r.Lookup(k)
		if w == "" {
			continue
		}
		byWorker[w] = append(byWorker[w], k)
	}
	out := make([]Assignment, 0, len(byWorker))
	for _, w := range r.Workers() {
		if ks, ok := byWorker[w]; ok {
			out = append(out, Assignment{Worker: w, Keys: ks})
		}
	}
	return out
}

// hash64 hashes s with FNV-1a and a splitmix64 finisher. FNV alone
// clusters similar strings ("w#1", "w#2", ...); the finisher scatters
// them uniformly around the ring.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// splitmix64 finisher.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
