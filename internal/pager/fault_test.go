package pager

import (
	"errors"
	"testing"
	"time"

	"skydiver/internal/retry"
)

func TestParseFaultPolicyRoundTrip(t *testing.T) {
	tests := []struct {
		in   string
		want FaultPolicy
	}{
		{"rate=0.01", FaultPolicy{Rate: 0.01}},
		{"rate=0.5,permanent=0.25", FaultPolicy{Rate: 0.5, PermanentRate: 0.25}},
		{"rate=1,permanent=1,latency=2ms,seed=7", FaultPolicy{Rate: 1, PermanentRate: 1, Latency: 2 * time.Millisecond, Seed: 7}},
		{" rate = 0.1 , seed = -3 ", FaultPolicy{Rate: 0.1, Seed: -3}},
	}
	for _, tc := range tests {
		got, err := ParseFaultPolicy(tc.in)
		if err != nil {
			t.Fatalf("ParseFaultPolicy(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseFaultPolicy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		again, err := ParseFaultPolicy(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q = %+v, %v", tc.in, got.String(), again, err)
		}
	}
}

func TestParseFaultPolicyErrors(t *testing.T) {
	for _, in := range []string{
		"", "rate", "rate=x", "rate=2", "rate=-0.1", "permanent=1.5",
		"latency=fast", "latency=-1ms,rate=0.1", "seed=1.5", "bogus=1",
		"rate=0.1,rate=0.2", "rate=NaN", "rate=0.1,permanent=nan",
	} {
		if _, err := ParseFaultPolicy(in); err == nil {
			t.Errorf("ParseFaultPolicy(%q): expected error", in)
		}
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	policy := FaultPolicy{Rate: 0.3, PermanentRate: 0.5, Seed: 42}
	outcomes := func() []bool {
		fi, err := NewFaultInjector(policy)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = fi.check(PageID(i)) != nil
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault lottery not deterministic at read %d", i)
		}
	}
}

func TestFaultInjectorPermanentSticky(t *testing.T) {
	fi, err := NewFaultInjector(FaultPolicy{Rate: 1, PermanentRate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fi.check(3); !errors.Is(err, ErrPermanentFault) {
		t.Fatalf("first read of page 3: got %v, want permanent fault", err)
	}
	for i := 0; i < 5; i++ {
		if err := fi.check(3); !errors.Is(err, ErrPermanentFault) {
			t.Fatalf("re-read %d of dead page 3: got %v", i, err)
		}
	}
	dead := fi.DeadPages()
	if len(dead) != 1 || dead[0] != 3 {
		t.Errorf("DeadPages = %v, want [3]", dead)
	}
	if s := fi.Stats(); s.Permanent != 6 || s.Transient != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBufferPoolRetriesTransientFaults(t *testing.T) {
	store := NewPageStore()
	id := store.Allocate()
	// Rate 0.5 transient-only: some reads fault, retries always eventually
	// succeed because transient faults re-draw the lottery.
	fi, err := NewFaultInjector(FaultPolicy{Rate: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaultInjector(fi)
	decode := func(raw []byte) (any, error) { return len(raw), nil }
	pool := NewBufferPool(store, 1)
	pool.SetRetryPolicy(retry.Policy{MaxRetries: 50})
	for i := 0; i < 100; i++ {
		pool.Clear()
		v, err := pool.Get(id, decode)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v.(int) != PageSize {
			t.Fatalf("read %d: decoded %v", i, v)
		}
	}
	if pool.Stats().Retries == 0 {
		t.Error("expected at least one retry at 50% transient fault rate")
	}
}

func TestBufferPoolSurfacesPermanentFaults(t *testing.T) {
	store := NewPageStore()
	id := store.Allocate()
	fi, err := NewFaultInjector(FaultPolicy{Rate: 1, PermanentRate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaultInjector(fi)
	pool := NewBufferPool(store, 1)
	pool.SetRetryPolicy(retry.Policy{MaxRetries: 3})
	_, err = pool.Get(id, func(raw []byte) (any, error) { return nil, nil })
	if !errors.Is(err, ErrPermanentFault) {
		t.Fatalf("got %v, want permanent fault", err)
	}
	// Permanent faults must not consume retries.
	if got := pool.Stats().Retries; got != 0 {
		t.Errorf("retries = %d, want 0 for a permanent fault", got)
	}
}

func TestBufferPoolRetryExhaustion(t *testing.T) {
	store := NewPageStore()
	id := store.Allocate()
	// Transient-only faults at rate 1 never succeed: retries must stop at
	// the policy bound and surface the transient error.
	fi, err := NewFaultInjector(FaultPolicy{Rate: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaultInjector(fi)
	pool := NewBufferPool(store, 1)
	pool.SetRetryPolicy(retry.Policy{MaxRetries: 3})
	_, err = pool.Get(id, func(raw []byte) (any, error) { return nil, nil })
	if !errors.Is(err, ErrTransientFault) {
		t.Fatalf("got %v, want transient fault after exhausted retries", err)
	}
	if got := pool.Stats().Retries; got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
}

// TestRetryPolicyBackoff pins the read path's default schedule: capped
// doubling from 100 µs without jitter, so per-query I/O timing stays
// deterministic under injected faults.
func TestRetryPolicyBackoff(t *testing.T) {
	r := DefaultRetryPolicy()
	if r.MaxRetries != 4 || r.FullJitter {
		t.Fatalf("default policy %+v, want 4 un-jittered retries", r)
	}
	want := []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000}
	for i, w := range want {
		if got := r.Delay(i); got != w*time.Microsecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Microsecond)
		}
	}
}

// TestBreakerIgnoresHealthyTraffic pins the read path's one classification
// for the store's breaker: a transient fault counts as a fault and a success
// as healthy, while a dead page (a permanent fault, not evidence that the
// device is sick) or an unrelated store error is not recorded at all.
func TestBreakerIgnoresHealthyTraffic(t *testing.T) {
	store := NewPageStore()
	dead, live := store.Allocate(), store.Allocate()
	// One recorded fault in a one-sample window would trip it.
	br, err := retry.NewBreaker(retry.BreakerPolicy{Window: 8, MinSamples: 1, TripRatio: 0.5, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	store.SetBreaker(br)
	fi, err := NewFaultInjector(FaultPolicy{Rate: 1, PermanentRate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaultInjector(fi)
	pool := NewBufferPool(store, 1)
	decode := func(raw []byte) (any, error) { return len(raw), nil }
	for i := 0; i < 16; i++ {
		if _, err := pool.Get(dead, decode); !errors.Is(err, ErrPermanentFault) {
			t.Fatalf("read %d of the dead page: %v, want ErrPermanentFault", i, err)
		}
	}
	if _, err := pool.Get(PageID(99), decode); err == nil || errors.Is(err, ErrPermanentFault) {
		t.Fatalf("read of an unallocated page: %v, want a plain store error", err)
	}
	if s := br.Stats(); s.State != retry.BreakerClosed || s.WindowSamples != 0 {
		t.Fatalf("dead-page and store errors entered the breaker: %+v", s)
	}
	store.SetFaultInjector(nil)
	if _, err := pool.Get(live, decode); err != nil {
		t.Fatal(err)
	}
	if s := br.Stats(); s.WindowSamples != 1 || s.WindowFaults != 0 {
		t.Fatalf("a clean read recorded as %+v, want one healthy sample", s)
	}
	// A transient fault is the one outcome that trips it.
	fi, err = NewFaultInjector(FaultPolicy{Rate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaultInjector(fi)
	pool.Clear()
	if _, err := pool.Get(live, decode); !errors.Is(err, retry.ErrCircuitOpen) {
		t.Fatalf("transient faults past the trip ratio: %v, want ErrCircuitOpen", err)
	}
}
