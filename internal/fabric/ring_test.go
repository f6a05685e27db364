package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"sipt/internal/vm"
)

// gridKeys builds a representative sweep grid: every figure app ×
// every scenario at one (seed, records) — the shape the coordinator
// actually partitions.
func gridKeys() []TraceKey {
	apps := []string{
		"astar", "bzip2", "gcc", "gobmk", "h264ref", "hmmer",
		"lbm", "libquantum", "mcf", "milc", "namd", "omnetpp",
		"perlbench", "povray", "sjeng", "soplex", "sphinx3", "xalancbmk",
	}
	var keys []TraceKey
	for _, app := range apps {
		for _, sc := range vm.Scenarios() {
			keys = append(keys, TraceKey{App: app, Scenario: sc.String(), Seed: 1, Records: 300_000})
		}
	}
	return keys
}

func workers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://worker-%d:8080", i)
	}
	return out
}

// TestRingDeterministicAssignment: the same grid partitions
// identically across independently built rings, regardless of worker
// insertion order — the property that makes shard routing reproducible
// run to run.
func TestRingDeterministicAssignment(t *testing.T) {
	ws := workers(5)
	keys := gridKeys()

	a := NewRing(ws)
	b := NewRing([]string{ws[3], ws[0], ws[4], ws[2], ws[1]}) // shuffled insertion
	for _, k := range keys {
		if got, want := b.Lookup(k), a.Lookup(k); got != want {
			t.Fatalf("key %s: insertion order changed owner %s -> %s", k, want, got)
		}
	}
	if !reflect.DeepEqual(Partition(a, keys), Partition(b, keys)) {
		t.Error("Partition differs across identically-membered rings")
	}
	// And across repeated calls on one ring.
	p1 := Partition(a, keys)
	p2 := Partition(a, keys)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("Partition not deterministic across calls")
	}
}

// TestRingMinimalReshuffleOnRemoval is the affinity stability property:
// removing one worker must not move any key between survivors — every
// key either keeps its owner or belonged to the removed worker.
func TestRingMinimalReshuffleOnRemoval(t *testing.T) {
	ws := workers(5)
	keys := gridKeys()
	r := NewRing(ws)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k.String()] = r.Lookup(k)
	}

	const removed = "http://worker-2:8080"
	r.Remove(removed)
	if r.Len() != 4 {
		t.Fatalf("Len after removal = %d, want 4", r.Len())
	}
	moved := 0
	for _, k := range keys {
		owner := r.Lookup(k)
		if owner == removed {
			t.Fatalf("key %s still owned by removed worker", k)
		}
		if prev := before[k.String()]; prev != removed && owner != prev {
			t.Errorf("key %s moved between survivors: %s -> %s", k, prev, owner)
		} else if prev == removed {
			moved++
		}
	}
	if moved == 0 {
		t.Error("removed worker owned no keys; grid or hash is degenerate")
	}
}

// TestRingSequence: the fallback order starts at the owner, visits
// every member exactly once, and its tail is exactly the assignment
// the ring would make with the prefix removed — the re-route invariant
// the coordinator relies on.
func TestRingSequence(t *testing.T) {
	ws := workers(4)
	keys := gridKeys()[:24]
	for _, k := range keys {
		r := NewRing(ws)
		seq := r.Sequence(k)
		if len(seq) != len(ws) {
			t.Fatalf("key %s: sequence %v misses members", k, seq)
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("key %s: sequence head %s != owner %s", k, seq[0], r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("key %s: duplicate %s in sequence %v", k, w, seq)
			}
			seen[w] = true
		}
		// Peeling the sequence one worker at a time must track Lookup on
		// the shrunken ring.
		for i := 0; i < len(seq)-1; i++ {
			r.Remove(seq[i])
			if got := r.Lookup(k); got != seq[i+1] {
				t.Fatalf("key %s: after removing %d workers Lookup = %s, want %s",
					k, i+1, got, seq[i+1])
			}
		}
	}
}

// TestRingBalance: virtual nodes keep the split from degenerating —
// with 4 workers over the full grid every worker owns a meaningful
// share. The exact split is pinned by the fixed hash, so this cannot
// flake; it guards against a hash or replica regression quietly
// starving a worker.
func TestRingBalance(t *testing.T) {
	r := NewRing(workers(4))
	keys := gridKeys()
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for _, w := range r.Workers() {
		if counts[w] < len(keys)/16 {
			t.Errorf("worker %s owns %d/%d keys — degenerate split", w, counts[w], len(keys))
		}
	}
}

// TestRingEmptyAndDuplicates: edge behaviour — empty ring answers "",
// duplicate Add collapses, Remove of a stranger is a no-op.
func TestRingEmptyAndDuplicates(t *testing.T) {
	r := NewRing(nil)
	if got := r.Lookup(TraceKey{App: "mcf"}); got != "" {
		t.Errorf("empty ring Lookup = %q, want empty", got)
	}
	if seq := r.Sequence(TraceKey{App: "mcf"}); seq != nil {
		t.Errorf("empty ring Sequence = %v, want nil", seq)
	}
	r.Add("w1")
	r.Add("w1")
	if r.Len() != 1 {
		t.Errorf("duplicate Add: Len = %d, want 1", r.Len())
	}
	r.Remove("stranger")
	if r.Len() != 1 {
		t.Errorf("Remove stranger: Len = %d, want 1", r.Len())
	}
	r.Remove("w1")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Errorf("after removing last worker: Len = %d, points = %d", r.Len(), len(r.points))
	}
}

// TestPartitionGroupsByOwner: Partition's assignments agree with
// Lookup, preserve key input order, and list workers in sorted order.
func TestPartitionGroupsByOwner(t *testing.T) {
	r := NewRing(workers(3))
	keys := gridKeys()
	parts := Partition(r, keys)
	total := 0
	for i, p := range parts {
		if i > 0 && parts[i-1].Worker >= p.Worker {
			t.Errorf("assignments out of worker order: %s >= %s", parts[i-1].Worker, p.Worker)
		}
		for _, k := range p.Keys {
			if r.Lookup(k) != p.Worker {
				t.Errorf("key %s assigned to %s but owned by %s", k, p.Worker, r.Lookup(k))
			}
		}
		total += len(p.Keys)
	}
	if total != len(keys) {
		t.Errorf("partition covers %d keys, want %d", total, len(keys))
	}
}
