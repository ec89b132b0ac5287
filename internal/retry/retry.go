// Package retry is the one backoff implementation the repository's retry
// loops share, and the circuit breaker that guards them: the pager's
// transient-fault re-reads, the admission queue's bounded wait, and the
// cluster executor's RPC envelope all sleep through this package, and the
// pager and the executor screen their calls with its Breaker. Centralizing
// the arithmetic keeps the semantics uniform (capped exponential growth,
// optional full jitter) and gives every owner the same test hooks — a
// deterministic random source, a fake sleeper and a breaker clock — so
// backoff and breaker behavior is assertable without wall-clock waits.
package retry

import (
	"context"
	"time"
)

// Policy bounds a retry loop: attempt n (0-based) backs off
// BaseDelay·2ⁿ capped at MaxDelay, optionally drawn uniformly from
// [0, cap) when FullJitter is set ("full jitter" in the AWS taxonomy —
// decorrelates synchronized retry storms across callers).
type Policy struct {
	// MaxRetries is the number of re-attempts after the initial one.
	MaxRetries int
	// BaseDelay is the first backoff step (0 disables sleeping).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = uncapped).
	MaxDelay time.Duration
	// FullJitter draws each delay uniformly from [0, Backoff(attempt))
	// instead of sleeping the deterministic cap-exponential value.
	FullJitter bool

	// Rand supplies the jitter lottery in [0, 1); nil uses a mutex-guarded
	// package-level source. Tests install a deterministic function.
	Rand func() float64
	// Sleeper, when non-nil, replaces the ctx-aware sleep — tests install a
	// recorder so backoff schedules are asserted without real waits.
	Sleeper func(ctx context.Context, d time.Duration) error
}

// Backoff returns the deterministic (un-jittered) delay before retry
// attempt (0-based): BaseDelay·2^attempt capped at MaxDelay.
func (p Policy) Backoff(attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// Delay returns the possibly-jittered delay before retry attempt.
func (p Policy) Delay(attempt int) time.Duration {
	d := p.Backoff(attempt)
	if !p.FullJitter || d <= 0 {
		return d
	}
	r := p.Rand
	if r == nil {
		r = defaultRand
	}
	return time.Duration(r() * float64(d))
}

// Wait sleeps the attempt's delay, honoring ctx: it returns ctx's error if
// the context expires first (or was already expired), nil otherwise. A zero
// delay returns immediately but still reports an expired context.
func (p Policy) Wait(ctx context.Context, attempt int) error {
	d := p.Delay(attempt)
	if s := p.Sleeper; s != nil {
		return s(ctx, d)
	}
	return Sleep(ctx, d)
}

// Sleep sleeps for d or until ctx expires, whichever comes first, returning
// ctx's error on expiry. d <= 0 only polls the context.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
