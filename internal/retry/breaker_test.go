package retry

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// testBreaker builds a breaker with a controllable clock.
func testBreaker(t *testing.T, p BreakerPolicy) (*Breaker, *time.Time) {
	t.Helper()
	b, err := NewBreaker(p)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }
	return b, &clock
}

func TestBreakerPolicyValidate(t *testing.T) {
	cases := []struct {
		p  BreakerPolicy
		ok bool
	}{
		{DefaultBreakerPolicy(), true},
		{BreakerPolicy{Window: 1, TripRatio: 1, Cooldown: time.Millisecond}, true},
		{BreakerPolicy{Window: 0, TripRatio: 0.5, Cooldown: time.Second}, false},
		{BreakerPolicy{Window: 4, MinSamples: 5, TripRatio: 0.5, Cooldown: time.Second}, false},
		{BreakerPolicy{Window: 4, TripRatio: 0, Cooldown: time.Second}, false},
		{BreakerPolicy{Window: 4, TripRatio: 1.5, Cooldown: time.Second}, false},
		{BreakerPolicy{Window: 4, TripRatio: 0.5, Cooldown: 0}, false},
		{BreakerPolicy{Window: 4, TripRatio: 0.5, Cooldown: time.Second, Probes: -1}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestBreakerTripsAtRatio(t *testing.T) {
	b, _ := testBreaker(t, BreakerPolicy{Window: 8, MinSamples: 4, TripRatio: 0.5, Cooldown: time.Second, Probes: 1})
	// Three faults among three samples: under MinSamples, must stay closed.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected read: %v", err)
		}
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before MinSamples, want closed", b.State())
	}
	// Fourth sample reaches MinSamples with a 100% fault rate: trip.
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 4/4 faults, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a read: %v", err)
	}
	s := b.Stats()
	if s.Trips != 1 || s.FastFails != 1 {
		t.Fatalf("stats = %+v, want 1 trip and 1 fast fail", s)
	}
}

func TestBreakerIgnoresHealthyTraffic(t *testing.T) {
	b, _ := testBreaker(t, BreakerPolicy{Window: 8, MinSamples: 4, TripRatio: 0.5, Cooldown: time.Second})
	// 3 faults in a window of 8 healthy-dominated reads: 3/8 < 0.5, closed.
	// (Successes lead so no prefix past MinSamples reaches the 0.5 ratio.)
	outcomes := []bool{false, false, false, true, false, true, false, true}
	for _, o := range outcomes {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected read: %v", err)
		}
		b.Record(o)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v at 3/8 faults, want closed", b.State())
	}
}

func TestBreakerSlidingWindowEvicts(t *testing.T) {
	b, _ := testBreaker(t, BreakerPolicy{Window: 4, MinSamples: 4, TripRatio: 0.5, Cooldown: time.Second})
	// Fill the window with faults... but interleave so it never trips:
	// 2 faults + 2 successes = 0.5 would trip, so use 1 fault per 3 successes.
	seq := []bool{true, false, false, false}
	for _, o := range seq {
		b.Record(o)
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped at 1/4")
	}
	// Four more successes must evict the old fault from the ring.
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	if s := b.Stats(); s.WindowFaults != 0 || s.WindowSamples != 4 {
		t.Fatalf("window = %d/%d, want 0 faults of 4 (old outcome evicted)", s.WindowFaults, s.WindowSamples)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clock := testBreaker(t, BreakerPolicy{Window: 4, MinSamples: 2, TripRatio: 0.5, Cooldown: time.Second, Probes: 2})
	b.Record(true)
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatal("did not trip")
	}
	// Before the cooldown: still open.
	*clock = clock.Add(999 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("pre-cooldown allow: %v", err)
	}
	// After the cooldown: exactly Probes concurrent probes pass.
	*clock = clock.Add(2 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	// Third concurrent probe exceeds the probe budget.
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe overcommit allowed: %v", err)
	}
	// Both probes succeed: breaker closes with a clean window.
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after %d clean probes, want closed", b.State(), 2)
	}
	if s := b.Stats(); s.WindowSamples != 0 {
		t.Fatalf("window not reset on close: %+v", s)
	}
}

func TestBreakerHalfOpenFaultReopens(t *testing.T) {
	b, clock := testBreaker(t, BreakerPolicy{Window: 4, MinSamples: 2, TripRatio: 0.5, Cooldown: time.Second, Probes: 2})
	b.Record(true)
	b.Record(true)
	*clock = clock.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after probe fault, want open", b.State())
	}
	if s := b.Stats(); s.Trips != 2 {
		t.Fatalf("trips = %d, want 2", s.Trips)
	}
	// The reopened cooldown starts from the probe fault, not the first trip.
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("reopened breaker allowed a read: %v", err)
	}
}

func TestBreakerLateRecordsWhileOpen(t *testing.T) {
	b, _ := testBreaker(t, BreakerPolicy{Window: 4, MinSamples: 2, TripRatio: 0.5, Cooldown: time.Hour})
	b.Record(true)
	b.Record(true)
	// In-flight reads finishing after the trip must not disturb the state.
	b.Record(false)
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if s := b.Stats(); s.Trips != 1 || s.WindowSamples != 0 {
		t.Fatalf("late records corrupted the breaker: %+v", s)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b, err := NewBreaker(BreakerPolicy{Window: 32, MinSamples: 8, TripRatio: 0.5, Cooldown: time.Microsecond, Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() != nil {
					continue
				}
				if (w+i)%3 == 0 {
					b.Record(true)
				} else {
					b.Record(false)
				}
			}
		}(w)
	}
	wg.Wait()
	// No particular final state is guaranteed — only internal consistency.
	s := b.Stats()
	if s.WindowFaults < 0 || s.WindowFaults > s.WindowSamples || s.WindowSamples > 32 {
		t.Fatalf("inconsistent window: %+v", s)
	}
}
