// Package fault is the repository's deterministic fault-injection
// framework. Packages declare named injection points at init time
// (fault.NewPoint("sched.worker.panic")); a test or the siptd process
// arms a subset of them from a spec like
//
//	sched.worker.panic:1/64,replay.pool.evict:1/16
//
// and every Fire() call at an armed point then draws a seeded,
// reproducible decision at the given rate. Unarmed points cost one
// atomic load and always answer false, so a point may sit on a warm
// path (never a //sipt:hotpath body — injection belongs at operation
// granularity, not per record) without measurable cost.
//
// Determinism: the i-th Fire() call at a point decides from
// splitmix64(seed ^ hash(name) ^ i). Under concurrency the *assignment*
// of decisions to callers follows arrival order, but the multiset of
// decisions over the first N calls is a pure function of (name, seed,
// N) — which is exactly what chaos tests need: a seeded schedule whose
// fault count is reproducible even when goroutine interleaving is not.
// The package reads no wall clock and no global randomness, keeping the
// detrand contract intact.
//
// The package also defines the error taxonomy the serving stack retries
// on: Transient wraps an error to mark it retryable, IsTransient
// classifies, and Retry is the one bounded-backoff ladder that
// internal/serve's job retries and the fabric client's shard retries
// both run.
package fault

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvSpec is the environment variable cmd/siptd consults for a fault
// spec when the -faults flag is not given.
const EnvSpec = "SIPT_FAULTS"

// arming is one point's live configuration. Swapped atomically so Fire
// never takes a lock.
type arming struct {
	num, den uint64
	seed     uint64
	calls    atomic.Uint64
}

// A Point is one named injection site. Construct with NewPoint at
// package init; the zero value never fires.
type Point struct {
	name string
	arm  atomic.Pointer[arming]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fire reports whether the fault triggers at this call. Unarmed points
// (the production default) answer false after a single atomic load.
func (p *Point) Fire() bool {
	a := p.arm.Load()
	if a == nil {
		return false
	}
	n := a.calls.Add(1)
	return splitmix64(a.seed^hashName(p.name)^n)%a.den < a.num
}

// Err returns a Transient injected error when the point fires, nil
// otherwise. Injection sites that model recoverable failures (a compute
// error, an eviction race) use this so the serving stack's retry
// machinery classifies them correctly.
func (p *Point) Err() error {
	if !p.Fire() {
		return nil
	}
	return Transient(fmt.Errorf("fault: injected failure at %s", p.name))
}

// registry is the process-global point table. Points register once at
// package init; Arm/Disarm look them up by name. Iteration only ever
// walks the insertion-ordered slice (detrand: never range the map).
var registry struct {
	mu     sync.Mutex
	byName map[string]*Point
	order  []*Point
}

// NewPoint registers a named injection point. Names are dotted paths
// ("pkg.site.kind") and must be unique: a duplicate registration is a
// programming error and panics at init time.
func NewPoint(name string) *Point {
	if name == "" {
		panic("fault: empty point name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]*Point)
	}
	if _, dup := registry.byName[name]; dup {
		panic("fault: duplicate point " + name)
	}
	p := &Point{name: name}
	registry.byName[name] = p
	registry.order = append(registry.order, p)
	return p
}

// A Rate is an n-in-d firing probability.
type Rate struct {
	Num, Den uint64
}

// A PointRate names one point of a Spec with its rate. Specs are
// ordered slices, not maps, so arming order (and error messages) are
// deterministic.
type PointRate struct {
	Name string
	Rate Rate
}

// A Spec is an ordered fault schedule, usually parsed from the
// "-faults" flag or the SIPT_FAULTS environment variable.
type Spec []PointRate

// String renders the spec back to its flag form.
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, pr := range s {
		parts[i] = fmt.Sprintf("%s:%d/%d", pr.Name, pr.Rate.Num, pr.Rate.Den)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses "name:num/den[,name:num/den...]". A bare "name"
// means 1/1 (always fire). Whitespace around entries is ignored; an
// empty string parses to an empty spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rate, hasRate := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("fault: empty point name in %q", entry)
		}
		r := Rate{Num: 1, Den: 1}
		if hasRate {
			numS, denS, hasDen := strings.Cut(rate, "/")
			num, err := strconv.ParseUint(strings.TrimSpace(numS), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad rate in %q: %v", entry, err)
			}
			den := uint64(1)
			if hasDen {
				den, err = strconv.ParseUint(strings.TrimSpace(denS), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: bad rate in %q: %v", entry, err)
				}
			}
			if den == 0 {
				return nil, fmt.Errorf("fault: zero denominator in %q", entry)
			}
			r = Rate{Num: num, Den: den}
		}
		spec = append(spec, PointRate{Name: name, Rate: r})
	}
	return spec, nil
}

// ErrUnknownPoint is wrapped by Arm when a spec names a point no
// package registered — almost always a typo in a flag or test.
var ErrUnknownPoint = errors.New("fault: unknown injection point")

// Arm activates every point in the spec with seeded, reproducible
// firing decisions, leaving points outside the spec unarmed. It
// replaces any previous arming wholesale (each Arm restarts every
// point's call counter). An unknown point name fails the whole call
// with ErrUnknownPoint before anything is armed.
func Arm(spec Spec, seed int64) error {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	armed := make(map[string]*arming, len(spec))
	for _, pr := range spec {
		if _, ok := registry.byName[pr.Name]; !ok {
			return fmt.Errorf("%w: %q (have %s)", ErrUnknownPoint, pr.Name,
				strings.Join(namesLocked(), ", "))
		}
		armed[pr.Name] = &arming{num: pr.Rate.Num, den: pr.Rate.Den, seed: uint64(seed)}
	}
	for _, p := range registry.order {
		p.arm.Store(armed[p.name]) // nil for points outside the spec
	}
	return nil
}

// Disarm deactivates every point: all Fire calls answer false again.
// Tests that Arm must defer Disarm (points are process-global).
func Disarm() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, p := range registry.order {
		p.arm.Store(nil)
	}
}

// namesLocked lists registered names for error messages; caller holds
// registry.mu.
func namesLocked() []string {
	names := make([]string, len(registry.order))
	for i, p := range registry.order {
		names[i] = p.name
	}
	return names
}

// Decide reports whether a point called name, armed under seed at rate
// r, fires on its call'th Fire invocation (1-based, matching the live
// counter). It is the pure decision function behind Fire, exported so
// chaos tests can *choose* seeds with a known schedule — e.g. "a seed
// under which sched.worker.panic:1/64 fires at least twice across 128
// calls" — and then assert the exact injected-failure count.
func Decide(name string, seed int64, call uint64, r Rate) bool {
	if r.Den == 0 {
		return false
	}
	return splitmix64(uint64(seed)^hashName(name)^call)%r.Den < r.Num
}

// hashName is FNV-1a, the same fixed hash the memo and trace caches use
// for shard assignment: no per-process seeding, so a point's decision
// stream depends only on (name, seed, call index).
func hashName(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the SplitMix64 output function: a full-avalanche mix so
// consecutive call indices decorrelate into uniform draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// transientError marks an error as retryable by the serving stack.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err as a transient (retryable) failure: the serving
// layer's bounded-backoff retry loop re-attempts jobs that fail with a
// transient error, while everything else fails fast. Transient(nil) is
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether any error in err's chain was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// The retry ladder (DESIGN.md §10): at most retryLimit reruns, rerun n
// after retryBase doubled n times, capped at retryCap.
const (
	retryLimit = 3
	retryBase  = 10 * time.Millisecond
	retryCap   = 250 * time.Millisecond
)

// Retry runs op and reruns it in place while it fails with a Transient
// error and ctx is live, at most three times, and returns op's last
// error. Before rerun n (from 0) it calls pause with the ladder's
// delay, 10 ms doubled n times and capped at 250 ms, that cap, and the
// error being retried. pause does the waiting through its caller's own
// sleep hook, so tests record the schedule instead of sleeping; it may
// wait another delay up to the cap, such as a server's Retry-After.
// Errors that are not Transient fail on the first attempt.
func Retry(ctx context.Context, op func() error, pause func(delay, limit time.Duration, err error)) error {
	err := op()
	for n := 0; err != nil && IsTransient(err) && ctx.Err() == nil && n < retryLimit; n++ {
		pause(min(retryBase<<n, retryCap), retryCap, err)
		err = op()
	}
	return err
}

// permanentError marks an error as explicitly classified and not
// retryable. Unlike transientError it is transparent: Error() returns
// the inner message unchanged, so classifying an existing error changes
// no output, and Unwrap keeps errors.Is/As working through the marker.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err as an explicitly permanent (non-retryable)
// failure: retrying cannot help — a protocol violation, a malformed
// request, an empty worker ring. The marker makes "we considered this
// error and it is not transient" visible to both readers and the
// transienterr analyzer, keeping the wire boundary's classification
// total. Permanent(nil) is nil. Classification is by the outermost
// intent: wrap at the point the error is constructed, not around an
// already-Transient chain.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether any error in err's chain was marked
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}
