package retry

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tripBreaker drives a closed test breaker open with transient faults.
func tripBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	for b.State() != BreakerOpen {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected read: %v", err)
		}
		b.Record(true)
	}
}

// TestBreakerHalfOpenConcurrentProbes floods a half-open breaker with
// concurrent readers and asserts the probe-slot contract: exactly the
// configured number of probes pass per half-open episode while every other
// concurrent read fast-fails with ErrCircuitOpen, and once the probes all
// succeed the breaker closes (observed in BreakerStats) and traffic flows
// freely again.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	const probes = 3
	b, clock := testBreaker(t, BreakerPolicy{
		Window: 8, MinSamples: 4, TripRatio: 0.5, Cooldown: 100 * time.Millisecond, Probes: probes,
	})
	tripBreaker(t, b)
	base := b.Stats()
	if base.State != BreakerOpen || base.Trips != 1 {
		t.Fatalf("setup: %+v, want open after one trip", base)
	}

	// Cooldown elapses; the next Allow finds the breaker half-open.
	*clock = clock.Add(100 * time.Millisecond)

	const readers = 64
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	grants := make(chan struct{}, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch err := b.Allow(); {
			case err == nil:
				admitted.Add(1)
				grants <- struct{}{}
			case errors.Is(err, ErrCircuitOpen):
				rejected.Add(1)
			default:
				t.Errorf("unclassified Allow error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(grants)

	if got := admitted.Load(); got != probes {
		t.Fatalf("half-open admitted %d concurrent reads, want exactly %d probe slots", got, probes)
	}
	if got := rejected.Load(); got != readers-probes {
		t.Fatalf("half-open fast-failed %d reads, want %d", got, readers-probes)
	}
	st := b.Stats()
	if st.State != BreakerHalfOpen {
		t.Fatalf("state %v after partial probing, want half-open", st.State)
	}
	if st.Probes-base.Probes != probes {
		t.Errorf("Probes counter advanced by %d, want %d", st.Probes-base.Probes, probes)
	}
	if st.FastFails-base.FastFails != int64(readers-probes) {
		t.Errorf("FastFails counter advanced by %d, want %d", st.FastFails-base.FastFails, readers-probes)
	}

	// Report consecutive successes for every admitted probe: the breaker
	// must close exactly when the last one lands, and the closure must be
	// visible in BreakerStats.
	n := 0
	for range grants {
		n++
		b.Record(false)
		st := b.Stats()
		if n < probes && st.State != BreakerHalfOpen {
			t.Fatalf("closed after %d/%d probe successes: %+v", n, probes, st)
		}
		if n == probes && st.State != BreakerClosed {
			t.Fatalf("still %v after %d consecutive probe successes", st.State, probes)
		}
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected read after recovery: %v", err)
	}
	b.Record(false)
	if st := b.Stats(); st.Trips != 1 {
		t.Errorf("recovery recorded %d trips, want the original 1", st.Trips)
	}
}

// TestBreakerHalfOpenProbeFaultReopens verifies the other half of the probe
// contract under concurrency: while some probes are still outstanding, one
// faulting probe reopens the breaker immediately and the outstanding probes'
// later outcomes cannot close it.
func TestBreakerHalfOpenProbeFaultReopens(t *testing.T) {
	const probes = 3
	b, clock := testBreaker(t, BreakerPolicy{
		Window: 8, MinSamples: 4, TripRatio: 0.5, Cooldown: 50 * time.Millisecond, Probes: probes,
	})
	tripBreaker(t, b)
	*clock = clock.Add(50 * time.Millisecond)

	// Claim all probe slots (simulating probes in flight concurrently).
	for i := 0; i < probes; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("probe %d rejected: %v", i, err)
		}
	}
	// First two probes succeed, the third faults: reopen.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	st := b.Stats()
	if st.State != BreakerOpen || st.Trips != 2 {
		t.Fatalf("after probe fault: %+v, want reopened with 2 trips", st)
	}
	// A stale success from a read that was in flight at reopen time must not
	// flip the breaker closed.
	b.Record(false)
	if st := b.Stats(); st.State != BreakerOpen {
		t.Fatalf("stale success closed an open breaker: %+v", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a read: %v", err)
	}
}
