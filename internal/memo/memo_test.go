package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sipt/internal/fault"
)

// TestBoundedAcrossManyDistinctKeys is the regression test for the
// unbounded exp.Runner memo map: 10k distinct keys through a small
// cache must stay within the capacity bound (evicting, not growing),
// while keys still resident keep hitting.
func TestBoundedAcrossManyDistinctKeys(t *testing.T) {
	const capTotal = 64
	c := New[int](capTotal, 8)
	var computes atomic.Int64
	for i := 0; i < 10_000; i++ {
		v, err := c.Do(fmt.Sprintf("key-%d", i), func() (int, error) {
			computes.Add(1)
			return i * 2, nil
		})
		if err != nil || v != i*2 {
			t.Fatalf("Do(key-%d) = %d, %v", i, v, err)
		}
		if n := c.Stats().Entries; n > capTotal {
			t.Fatalf("after %d inserts cache holds %d entries, cap %d", i+1, n, capTotal)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("10k distinct keys through a 64-entry cache evicted nothing")
	}
	if st.Misses != 10_000 || computes.Load() != 10_000 {
		t.Errorf("misses = %d, computes = %d, want 10000 each", st.Misses, computes.Load())
	}
	if st.Entries > capTotal {
		t.Errorf("final entries = %d, cap %d", st.Entries, capTotal)
	}

	// The most recently used keys are still resident: repeating the last
	// key must hit, not recompute.
	before := computes.Load()
	if _, err := c.Do("key-9999", func() (int, error) {
		computes.Add(1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != before {
		t.Error("repeat of a resident key recomputed instead of hitting")
	}
	if c.Stats().Hits == 0 {
		t.Error("hit counter never advanced")
	}
}

// TestSingleflight verifies concurrent Do calls of one key share a
// single compute and all observe its value.
func TestSingleflight(t *testing.T) {
	c := New[string](16, 2)
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]string, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("shared", func() (string, error) {
				computes.Add(1)
				<-release // hold the flight open so everyone piles on
				return "value", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1", computes.Load())
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("goroutine %d saw %q", i, v)
		}
	}
}

// TestErrorsAreNotCached verifies a failed compute is forgotten: the
// key retries on the next Do instead of replaying the error.
func TestErrorsAreNotCached(t *testing.T) {
	c := New[int](16, 2)
	boom := errors.New("boom")
	calls := 0
	_, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("failed entry retained: Len = %d", n)
	}
	v, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Do = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2 (error retried)", calls)
	}
	// And the successful retry is now cached.
	v, err = c.Do("k", func() (int, error) { calls++; return 0, nil })
	if err != nil || v != 7 || calls != 2 {
		t.Fatalf("cached Do = %d, %v, calls %d; want 7, nil, 2", v, err, calls)
	}
}

// TestConcurrentDistinctKeys hammers the cache from many goroutines
// with overlapping key sets (run under -race in CI).
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[int](128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%d", i%97)
				v, err := c.Do(k, func() (int, error) { return i % 97, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", k, err)
					return
				}
				if v != i%97 {
					t.Errorf("Do(%s) = %d, want %d", k, v, i%97)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Stats().Entries; n > 128 {
		t.Errorf("entries = %d exceeds cap", n)
	}
}

// TestCapOneShard covers the degenerate geometry: capacity smaller than
// the shard count must still admit one entry per shard.
func TestCapOneShard(t *testing.T) {
	c := New[int](2, 16)
	for i := 0; i < 50; i++ {
		v, err := c.Do(fmt.Sprintf("k%d", i), func() (int, error) { return i, nil })
		if err != nil || v != i {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if n := c.Stats().Entries; n > 2 {
		t.Errorf("entries = %d, cap 2", n)
	}
}

// TestInjectedComputeFaultNotCached arms memo.compute.err at 1/1: every
// compute fails with the injected transient error, the failure is
// visible to the caller, and — errors never being cached — disarming
// lets the very same key compute successfully.
func TestInjectedComputeFaultNotCached(t *testing.T) {
	spec, err := fault.ParseSpec("memo.compute.err:1/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 42); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	c := New[int](16, 2)
	calls := 0
	_, err = c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("Do under injected fault = %v, want transient error", err)
	}
	if calls != 0 {
		t.Fatalf("compute ran %d times under an injected failure, want 0", calls)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("injected failure retained: Len = %d", n)
	}

	fault.Disarm()
	v, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || calls != 1 {
		t.Fatalf("post-disarm Do = %d, %v (calls %d); want 7, nil, 1", v, err, calls)
	}
}

// TestSingleflightUnderInjectedFaults drives concurrent Do calls of
// shared keys with memo.compute.err armed at 1/4 while distinct keys
// churn the same shards for eviction pressure. Invariants: a failed
// flight's waiters all see the error (no partial values), failed keys
// always recover on retry, and successful values are always the
// correct one for their key.
func TestSingleflightUnderInjectedFaults(t *testing.T) {
	spec, err := fault.ParseSpec("memo.compute.err:1/4")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(spec, 7); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	c := New[int](32, 4)
	var wg sync.WaitGroup
	var transientSeen, okSeen atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := i % 13
				// Retry across injected failures: the error must never be
				// sticky, so a bounded retry loop always converges.
				settled := false
				for attempt := 0; attempt < 50; attempt++ {
					v, err := c.Do(fmt.Sprintf("key-%d", k), func() (int, error) { return k * 3, nil })
					if err != nil {
						if !fault.IsTransient(err) {
							t.Errorf("unexpected non-injected error: %v", err)
							return
						}
						transientSeen.Add(1)
						continue
					}
					if v != k*3 {
						t.Errorf("Do(key-%d) = %d, want %d", k, v, k*3)
						return
					}
					okSeen.Add(1)
					settled = true
					break
				}
				if !settled {
					t.Errorf("key-%d never computed through 50 attempts at a 1/4 fault rate", k)
					return
				}
				// Eviction pressure: churn a distinct key through the same
				// bounded cache so resident entries get displaced while
				// flights are in progress.
				_, _ = c.Do(fmt.Sprintf("churn-%d-%d", g, i), func() (int, error) { return 0, nil })
			}
		}(g)
	}
	wg.Wait()
	if transientSeen.Load() == 0 {
		t.Error("fault armed at 1/4 but no injected failure was observed")
	}
	if okSeen.Load() == 0 {
		t.Error("no successful computes")
	}
	if n := c.Stats().Entries; n > 32 {
		t.Errorf("entries = %d exceeds cap under fault+eviction churn", n)
	}
}

// TestInflightEntryNotEvicted pins that eviction pressure never drops a
// key whose compute is still running: with one entry of capacity, a
// completed "other" must not push out the in-flight "slow", so a second
// Do of "slow" joins the first flight instead of computing again.
func TestInflightEntryNotEvicted(t *testing.T) {
	c := New[int](1, 1)
	var computes atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	slow := func() (int, error) {
		if computes.Add(1) == 1 {
			close(started)
			<-release
		}
		return 42, nil
	}
	results := make(chan int, 2)
	call := func() {
		v, err := c.Do("slow", slow)
		if err != nil {
			t.Error(err)
		}
		results <- v
	}
	go call()
	<-started
	if v, err := c.Do("other", func() (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Fatalf("Do(other) = %d, %v", v, err)
	}
	go call()
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("slow computed %d times, want 1", n)
	}
}

// TestPanickingComputeIsForgotten: a compute that panics leaves no
// entry behind that would answer later callers with a zero value.
func TestPanickingComputeIsForgotten(t *testing.T) {
	c := New[int](4, 1)
	func() {
		defer func() { _ = recover() }()
		_, _ = c.Do("k", func() (int, error) { panic("boom") })
	}()
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("Do after a panicked compute = %d, %v; want 7, nil", v, err)
	}
}
