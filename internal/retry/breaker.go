package retry

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrCircuitOpen marks an operation rejected by an open circuit breaker: its
// target has been faulting at a rate above the breaker's trip threshold, so
// calls fail fast instead of burning every caller's retry budget against it.
var ErrCircuitOpen = errors.New("retry: circuit breaker open")

// BreakerState is the circuit breaker's current state.
type BreakerState int

// Breaker states, the classic three-state machine.
const (
	// BreakerClosed passes calls through while tracking their outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls immediately with ErrCircuitOpen until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a bounded number of probe calls through; enough
	// consecutive successes close the breaker, any fault reopens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerPolicy configures a Breaker.
type BreakerPolicy struct {
	// Window is the number of recent outcomes kept in the sliding window.
	// Must be at least 1.
	Window int
	// MinSamples is the minimum number of outcomes in the window before the
	// fault rate can trip the breaker (0 = Window/2, at least 1).
	MinSamples int
	// TripRatio opens the breaker when the window's fault rate reaches it.
	// Must be in (0, 1].
	TripRatio float64
	// Cooldown is how long the breaker stays open before allowing half-open
	// probes. Must be positive.
	Cooldown time.Duration
	// Probes is the number of consecutive successful half-open probes needed
	// to close the breaker again (0 = 1).
	Probes int
}

// DefaultBreakerPolicy returns a conservative default: trip when half of the
// last 64 calls faulted (after at least 16 samples), stay open 200 ms, close
// after 3 clean probes.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Window: 64, MinSamples: 16, TripRatio: 0.5, Cooldown: 200 * time.Millisecond, Probes: 3}
}

// Validate checks the policy's ranges and fills the defaulted fields.
func (p BreakerPolicy) Validate() error {
	if p.Window < 1 {
		return fmt.Errorf("retry: breaker window %d, want at least 1", p.Window)
	}
	if p.MinSamples < 0 || p.MinSamples > p.Window {
		return fmt.Errorf("retry: breaker MinSamples %d out of [0, window %d]", p.MinSamples, p.Window)
	}
	if p.TripRatio <= 0 || p.TripRatio > 1 {
		return fmt.Errorf("retry: breaker trip ratio %v out of (0, 1]", p.TripRatio)
	}
	if p.Cooldown <= 0 {
		return fmt.Errorf("retry: non-positive breaker cooldown %v", p.Cooldown)
	}
	if p.Probes < 0 {
		return fmt.Errorf("retry: negative breaker probe count %d", p.Probes)
	}
	return nil
}

// withDefaults fills unset optional fields.
func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.MinSamples == 0 {
		p.MinSamples = p.Window / 2
		if p.MinSamples < 1 {
			p.MinSamples = 1
		}
	}
	if p.Probes == 0 {
		p.Probes = 1
	}
	return p
}

// BreakerStats counts what the breaker has done so far.
type BreakerStats struct {
	// State is the state at snapshot time.
	State BreakerState
	// Trips counts closed/half-open → open transitions.
	Trips int64
	// FastFails counts calls rejected with ErrCircuitOpen.
	FastFails int64
	// Probes counts half-open probe calls allowed through.
	Probes int64
	// WindowFaults and WindowSamples describe the current sliding window.
	WindowFaults, WindowSamples int
}

// Breaker is a three-state circuit breaker in front of a retried operation:
// the pager's physical page reads (one breaker per page store) and the
// cluster executor's RPCs (one per worker). Closed, it records every outcome
// in a sliding window and opens when the fault rate trips the policy's
// threshold. Open, calls are rejected immediately with ErrCircuitOpen — no
// retry sleeps. After the cooldown it half-opens and lets probe calls
// through; enough consecutive successes close it, any probe fault reopens
// it. The owner decides what counts as a fault. It is safe for concurrent
// use.
type Breaker struct {
	mu     sync.Mutex
	p      BreakerPolicy
	now    func() time.Time // test hook; time.Now in production
	state  BreakerState
	window []bool // ring of outcomes, true = fault
	head   int
	filled int
	faults int
	opened time.Time
	// half-open bookkeeping: probes in flight and consecutive successes.
	probing   int
	successes int
	stats     BreakerStats
}

// NewBreaker creates a breaker for the policy.
func NewBreaker(p BreakerPolicy) (*Breaker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	return &Breaker{p: p, now: time.Now, window: make([]bool, p.Window)}, nil
}

// State returns the current state, advancing open → half-open if the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// Stats returns a snapshot of the counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.State = b.state
	s.WindowFaults = b.faults
	s.WindowSamples = b.filled
	return s
}

// maybeHalfOpen transitions open → half-open when the cooldown has elapsed.
// b.mu must be held.
func (b *Breaker) maybeHalfOpen() {
	if b.state == BreakerOpen && b.now().Sub(b.opened) >= b.p.Cooldown {
		b.state = BreakerHalfOpen
		b.probing = 0
		b.successes = 0
	}
}

// Allow screens one call. A nil return means the call may proceed and its
// outcome must be reported with Record; ErrCircuitOpen means the call is
// rejected fast.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		if b.probing >= b.p.Probes {
			b.stats.FastFails++
			return ErrCircuitOpen
		}
		b.probing++
		b.stats.Probes++
		return nil
	default:
		b.stats.FastFails++
		return ErrCircuitOpen
	}
}

// Record reports the outcome of a call that Allow let through: fault is
// true when it failed in a way that counts against the target. An outcome
// that says nothing about the target's health (a dead page, a caller's
// cancellation) should not be recorded at all.
func (b *Breaker) Record(fault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if b.probing > 0 {
			b.probing--
		}
		if fault {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.p.Probes {
			b.state = BreakerClosed
			b.resetWindow()
		}
	case BreakerClosed:
		b.push(fault)
		if b.filled >= b.p.MinSamples &&
			float64(b.faults) >= b.p.TripRatio*float64(b.filled) {
			b.trip()
		}
	default:
		// Calls that were already in flight when the breaker opened; their
		// outcomes no longer matter.
	}
}

// trip opens the breaker. b.mu must be held.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.opened = b.now()
	b.stats.Trips++
	b.resetWindow()
}

// resetWindow clears the sliding window. b.mu must be held.
func (b *Breaker) resetWindow() {
	b.head, b.filled, b.faults = 0, 0, 0
	for i := range b.window {
		b.window[i] = false
	}
}

// push records one outcome in the ring. b.mu must be held.
func (b *Breaker) push(fault bool) {
	if b.filled == len(b.window) {
		if b.window[b.head] {
			b.faults--
		}
	} else {
		b.filled++
	}
	b.window[b.head] = fault
	if fault {
		b.faults++
	}
	b.head = (b.head + 1) % len(b.window)
}
