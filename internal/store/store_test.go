package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sipt/internal/store"
)

func open(t *testing.T, dir string, budget int64) *store.Store {
	t.Helper()
	s, err := store.Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutGetRoundTrip covers the basic contract: what goes in comes out
// byte-identical, misses are ErrNotFound, re-puts dedupe.
func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	key := store.KeyOf("result", "v1", "libquantum")
	blob := []byte("payload bytes")

	if _, err := s.Get(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get of absent key: %v", err)
	}
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get: %q, %v", got, err)
	}
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 {
		t.Fatalf("re-Put not deduplicated: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !s.Contains(key) || s.Contains(store.KeyOf("other")) {
		t.Fatal("Contains disagrees with contents")
	}
}

// TestReopenRecovers asserts entries survive a close-and-reopen (there
// is no close; dropping the Store is the crash) and that orphaned temp
// files from interrupted writes are swept.
func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	key := store.KeyOf("k")
	if err := s.Put(key, []byte("survives restarts")); err != nil {
		t.Fatal(err)
	}

	// Simulate a write interrupted mid-flight.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Foreign files are left alone and not indexed.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 1<<20)
	got, err := s2.Get(key)
	if err != nil || string(got) != "survives restarts" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
	st := s2.Stats()
	if st.Orphans != 1 {
		t.Fatalf("orphan sweep: %+v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("foreign file indexed: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123456")); !os.IsNotExist(err) {
		t.Fatal("orphan temp file not deleted")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file deleted")
	}
}

// TestCorruptEntryFallsBackToRecompute asserts a damaged blob is
// detected, deleted, and reported as a miss — the recompute path
// doubles as repair.
func TestCorruptEntryFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	key := store.KeyOf("k")
	if err := s.Put(key, []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("corrupt entry served: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats after corruption: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file not deleted")
	}
	// Re-Put repairs.
	if err := s.Put(key, []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || string(got) != "pristine" {
		t.Fatalf("after repair: %q, %v", got, err)
	}
}

// TestConcurrentCorruptionRecovery races several Gets of the same
// truncated blob: every caller sees ErrNotFound, but exactly one owns
// the self-heal — one file delete, one corruption count — so a
// concurrent Put repairing the key can never have its fresh blob
// deleted by a straggling loser.
func TestConcurrentCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	key := store.KeyOf("k")
	if err := s.Put(key, []byte("soon to be torn")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String())
	if err := os.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	start := make(chan struct{})
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = s.Get(key)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, store.ErrNotFound) {
			t.Errorf("reader %d: err = %v, want ErrNotFound", i, err)
		}
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want exactly 1 (one owner of the self-heal)", st.Corrupt)
	}
	if st.Entries != 0 {
		t.Errorf("Entries = %d, want 0", st.Entries)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("torn entry file not deleted")
	}
	// Re-Put repairs the key for everyone.
	if err := s.Put(key, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || string(got) != "healed" {
		t.Fatalf("after repair: %q, %v", got, err)
	}
}

// TestLRUJanitor asserts the byte budget evicts least-recently-used
// entries first and refuses blobs beyond the whole budget.
func TestLRUJanitor(t *testing.T) {
	// Budget fits ~3 entries of 100 payload bytes (+20 header each).
	s := open(t, t.TempDir(), 400)
	blob := bytes.Repeat([]byte("x"), 100)
	keys := make([]store.Key, 4)
	for i := range keys {
		keys[i] = store.KeyOf(fmt.Sprint(i))
	}
	for _, k := range keys[:3] {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, err := s.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keys[3], blob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(keys[1]); !errors.Is(err, store.ErrNotFound) {
		t.Fatal("LRU entry survived over-budget Put")
	}
	for _, k := range []store.Key{keys[0], keys[2], keys[3]} {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("recently used entry evicted: %v", err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes > 400 {
		t.Fatalf("janitor stats: %+v", st)
	}

	if err := s.Put(store.KeyOf("huge"), bytes.Repeat([]byte("y"), 500)); !errors.Is(err, store.ErrTooLarge) {
		t.Fatalf("over-budget blob accepted: %v", err)
	}
}

// TestReopenSeedsRecency asserts restart preserves approximate LRU
// order: after reopening, the oldest file is still the first victim.
func TestReopenSeedsRecency(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	old := store.KeyOf("old")
	newer := store.KeyOf("newer")
	if err := s.Put(old, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(newer, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Force distinct mtimes regardless of filesystem granularity.
	if err := os.Chtimes(filepath.Join(dir, old.String()), fixedTime(1), fixedTime(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, newer.String()), fixedTime(2), fixedTime(2)); err != nil {
		t.Fatal(err)
	}

	// Reopen with a budget that fits only one entry: the newer one must
	// be the survivor.
	s2 := open(t, dir, 21)
	if _, err := s2.Get(newer); err != nil {
		t.Fatal("newest entry evicted on reopen")
	}
	if _, err := s2.Get(old); !errors.Is(err, store.ErrNotFound) {
		t.Fatal("oldest entry survived a one-entry budget")
	}
}

// TestKeysSorted asserts the listing is hex-sorted and complete.
func TestKeysSorted(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	want := make(map[string]bool)
	for i := 0; i < 10; i++ {
		k := store.KeyOf(fmt.Sprint(i))
		want[k.String()] = true
		if err := s.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 10 {
		t.Fatalf("Keys returned %d entries", len(keys))
	}
	for i, k := range keys {
		if !want[k.String()] {
			t.Fatalf("unexpected key %s", k)
		}
		if i > 0 && !(keys[i-1].String() < k.String()) {
			t.Fatal("Keys not sorted")
		}
	}
}

// TestConcurrentPutGet hammers the store from many goroutines to give
// the race detector something to chew on and to assert the byte bound
// holds under pressure.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), 4<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := store.KeyOf(fmt.Sprint((g*7)%13), fmt.Sprint(i%11))
				if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(k); err != nil && !errors.Is(err, store.ErrNotFound) {
					t.Error(err)
					return
				}
				if st := s.Stats(); st.Bytes > 4<<10 {
					t.Errorf("bytes %d over budget", st.Bytes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCanonicalInjective pins the property KeyOf depends on: distinct
// tuples never encode identically, and encoding round-trips.
func TestCanonicalInjective(t *testing.T) {
	cases := [][]string{
		{}, {""}, {"", ""}, {"a", "bc"}, {"ab", "c"}, {"abc"}, {"a|b", "c"}, {"a", "b|c"},
		{"\x00"}, {"\x00\x00"}, {string(make([]byte, 300))},
	}
	seen := make(map[string][]string)
	for _, parts := range cases {
		enc := store.Canonical(parts)
		if prev, dup := seen[string(enc)]; dup {
			t.Fatalf("collision: %q and %q", prev, parts)
		}
		seen[string(enc)] = parts
		back, err := store.SplitCanonical(enc)
		if err != nil {
			t.Fatalf("%q: %v", parts, err)
		}
		if len(back) != len(parts) {
			t.Fatalf("%q: round-trip length %d", parts, len(back))
		}
		for i := range back {
			if back[i] != parts[i] {
				t.Fatalf("%q: part %d became %q", parts, i, back[i])
			}
		}
	}
	if store.KeyOf("a", "bc") == store.KeyOf("ab", "c") {
		t.Fatal("KeyOf not injective over part boundaries")
	}
}

// fixedTime builds a deterministic timestamp for Chtimes (no clock
// reads; the constant instants just order the files).
func fixedTime(sec int64) time.Time { return time.Unix(sec, 0) }
