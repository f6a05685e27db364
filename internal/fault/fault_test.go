package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testPoint registers a uniquely named point (the registry is
// process-global and rejects duplicates).
var testPointSeq int

func testPoint(t *testing.T) *Point {
	t.Helper()
	testPointSeq++
	p := NewPoint(fmt.Sprintf("test.point.%d", testPointSeq))
	t.Cleanup(Disarm)
	return p
}

func arm(t *testing.T, spec string, seed int64) {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Arm(s, seed); err != nil {
		t.Fatal(err)
	}
}

func TestUnarmedNeverFires(t *testing.T) {
	p := testPoint(t)
	for i := 0; i < 10_000; i++ {
		if p.Fire() {
			t.Fatal("unarmed point fired")
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("unarmed Err = %v", err)
	}
}

func TestAlwaysAndNeverRates(t *testing.T) {
	p := testPoint(t)
	arm(t, p.Name()+":1/1", 1)
	for i := 0; i < 100; i++ {
		if !p.Fire() {
			t.Fatal("1/1 point did not fire")
		}
	}
	arm(t, p.Name()+":0/4", 1)
	for i := 0; i < 100; i++ {
		if p.Fire() {
			t.Fatal("0/4 point fired")
		}
	}
}

// TestSeededDeterminism pins the framework's core contract: the
// decision sequence is a pure function of (name, seed, call index).
func TestSeededDeterminism(t *testing.T) {
	p := testPoint(t)
	draw := func(seed int64) []bool {
		arm(t, p.Name()+":1/8", seed)
		out := make([]bool, 512)
		for i := range out {
			out[i] = p.Fire()
		}
		return out
	}
	a, b := draw(42), draw(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs across identical armings", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("1/8 rate fired %d/%d times", fired, len(a))
	}
	// A different seed yields a different schedule.
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical schedules")
	}
}

// TestConcurrentFireCountDeterministic: under concurrency the
// assignment of decisions to goroutines varies, but the fire count over
// N calls is reproducible (the chaos suite depends on this).
func TestConcurrentFireCountDeterministic(t *testing.T) {
	p := testPoint(t)
	count := func() int {
		arm(t, p.Name()+":1/16", 7)
		var wg sync.WaitGroup
		fires := make([]int, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 256; i++ {
					if p.Fire() {
						fires[g]++
					}
				}
			}(g)
		}
		wg.Wait()
		total := 0
		for _, n := range fires {
			total += n
		}
		return total
	}
	first := count()
	if first == 0 {
		t.Fatal("1/16 over 2048 calls fired zero times")
	}
	for i := 0; i < 3; i++ {
		if n := count(); n != first {
			t.Fatalf("fire count %d on rerun, want %d", n, first)
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(" a.b:1/64, c.d , e.f:3/4 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		{Name: "a.b", Rate: Rate{1, 64}},
		{Name: "c.d", Rate: Rate{1, 1}},
		{Name: "e.f", Rate: Rate{3, 4}},
	}
	if len(spec) != len(want) {
		t.Fatalf("spec = %+v", spec)
	}
	for i := range want {
		if spec[i] != want[i] {
			t.Errorf("spec[%d] = %+v, want %+v", i, spec[i], want[i])
		}
	}
	if got := spec.String(); got != "a.b:1/64,c.d:1/1,e.f:3/4" {
		t.Errorf("String() = %q", got)
	}
	if s, err := ParseSpec(""); err != nil || len(s) != 0 {
		t.Errorf("empty spec = %+v, %v", s, err)
	}
	for _, bad := range []string{"x:one/2", "x:1/0", "x:1/two", ":1/2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted garbage", bad)
		}
	}
}

func TestArmUnknownPointFails(t *testing.T) {
	t.Cleanup(Disarm)
	err := Arm(Spec{{Name: "no.such.point", Rate: Rate{1, 1}}}, 1)
	if !errors.Is(err, ErrUnknownPoint) {
		t.Fatalf("err = %v, want ErrUnknownPoint", err)
	}
}

// TestArmReplacesWholesale: a second Arm disarms points absent from the
// new spec.
func TestArmReplacesWholesale(t *testing.T) {
	p1, p2 := testPoint(t), testPoint(t)
	arm(t, p1.Name()+":1/1", 1)
	if !p1.Fire() {
		t.Fatal("p1 not armed")
	}
	arm(t, p2.Name()+":1/1", 1)
	if p1.Fire() {
		t.Error("p1 still armed after a spec that omits it")
	}
	if !p2.Fire() {
		t.Error("p2 not armed")
	}
	Disarm()
	if p2.Fire() {
		t.Error("p2 armed after Disarm")
	}
}

func TestTransientClassification(t *testing.T) {
	base := errors.New("boom")
	if !IsTransient(Transient(base)) {
		t.Error("Transient(err) not classified transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(base))) {
		t.Error("wrapped transient lost its class")
	}
	if IsTransient(base) {
		t.Error("plain error classified transient")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient does not unwrap to its cause")
	}
}

// TestErrIsTransient: injected errors from a point carry the transient
// class and the point name.
func TestErrIsTransient(t *testing.T) {
	p := testPoint(t)
	arm(t, p.Name()+":1/1", 1)
	err := p.Err()
	if err == nil || !IsTransient(err) {
		t.Fatalf("Err() = %v, want transient", err)
	}
	if want := p.Name(); !strings.Contains(err.Error(), want) {
		t.Errorf("Err() = %q, want mention of %q", err, want)
	}
}

func TestPermanentClassification(t *testing.T) {
	base := errors.New("boom")
	p := Permanent(base)
	if !IsPermanent(p) {
		t.Error("Permanent(err) not classified permanent")
	}
	if IsTransient(p) {
		t.Error("Permanent(err) classified transient")
	}
	if !IsPermanent(fmt.Errorf("wrapped: %w", p)) {
		t.Error("wrapped permanent lost its class")
	}
	if IsPermanent(base) {
		t.Error("plain error classified permanent")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
	if !errors.Is(p, base) {
		t.Error("Permanent does not unwrap to its cause")
	}
	// Transparency: classifying must not change the message, so
	// operator-facing logs and callers that match on error text are
	// unaffected by the wrap.
	if p.Error() != base.Error() {
		t.Errorf("Permanent changed the message: %q != %q", p.Error(), base.Error())
	}
	if IsPermanent(Transient(base)) {
		t.Error("Transient(err) classified permanent")
	}
}

// TestRetryLadder pins the one retry ladder: three reruns after 10, 20
// and 40 ms, each capped at 250 ms, only for Transient errors, and none
// once the context is done.
func TestRetryLadder(t *testing.T) {
	flaky := Transient(errors.New("flaky"))
	cases := []struct {
		name   string
		fails  int   // attempts that fail before one succeeds
		err    error // the failure
		cancel bool  // ctx is done before the first attempt
		want   []time.Duration
	}{
		{"succeeds", 0, flaky, false, nil},
		{"recovers", 2, flaky, false, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}},
		{"exhausted", 9, flaky, false, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}},
		{"permanent", 9, errors.New("hard"), false, nil},
		{"canceled", 9, flaky, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			attempts := 0
			var got []time.Duration
			err := Retry(ctx, func() error {
				attempts++
				if attempts <= tc.fails {
					return tc.err
				}
				return nil
			}, func(d, limit time.Duration, err error) {
				if limit != 250*time.Millisecond || err != tc.err {
					t.Errorf("pause(%v, %v, %v), want the 250ms cap and the failure", d, limit, err)
				}
				got = append(got, d)
			})
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("pauses = %v, want %v", got, tc.want)
			}
			if attempts != 1+len(tc.want) {
				t.Errorf("attempts = %d, want %d", attempts, 1+len(tc.want))
			}
			if wantErr := attempts <= tc.fails; (err != nil) != wantErr {
				t.Errorf("err = %v, want failure %v", err, wantErr)
			}
		})
	}
}
