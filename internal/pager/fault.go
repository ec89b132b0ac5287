package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"skydiver/internal/fault"
	"skydiver/internal/retry"
)

// Fault sentinels. Injected read failures wrap one of these two errors, so
// callers can distinguish retryable glitches from dead pages with errors.Is.
var (
	// ErrTransientFault marks an injected fault that may succeed on retry.
	ErrTransientFault = errors.New("pager: transient read fault")
	// ErrPermanentFault marks an injected fault that never recovers: once a
	// page fails permanently, every later read of it fails too.
	ErrPermanentFault = errors.New("pager: permanent read fault")
)

// FaultPolicy configures synthetic storage faults on the physical read path.
// A zero policy injects nothing. Policies are deterministic per Seed, so a
// failing fault-injection test reproduces exactly.
type FaultPolicy struct {
	// Rate is the probability in [0, 1] that a physical page read faults.
	Rate float64
	// PermanentRate is the fraction in [0, 1] of injected faults that are
	// permanent; the rest are transient and succeed when retried.
	PermanentRate float64
	// Latency is added to every injected fault, modeling a slow or timed-out
	// device before the error surfaces.
	Latency time.Duration
	// Seed drives the fault lottery deterministically.
	Seed int64
}

// Validate checks the policy's numeric ranges.
func (p FaultPolicy) Validate() error {
	// Written so that NaN, which fails every comparison, is out of range.
	if !(p.Rate >= 0 && p.Rate <= 1) {
		return fmt.Errorf("pager: fault rate %v out of [0,1]", p.Rate)
	}
	if !(p.PermanentRate >= 0 && p.PermanentRate <= 1) {
		return fmt.Errorf("pager: permanent fault rate %v out of [0,1]", p.PermanentRate)
	}
	if p.Latency < 0 {
		return fmt.Errorf("pager: negative fault latency %v", p.Latency)
	}
	return nil
}

func (p *FaultPolicy) fields() []fault.Field {
	return []fault.Field{
		fault.Prob("rate", &p.Rate),
		fault.Prob("permanent", &p.PermanentRate),
		fault.Duration("latency", &p.Latency),
		fault.Int("seed", &p.Seed),
	}
}

// String encodes the policy in the key=value form ParseFaultPolicy accepts,
// every field included, e.g. "rate=0.01,permanent=0.1,latency=2ms,seed=7".
func (p FaultPolicy) String() string { return fault.Format(false, p.fields()...) }

// ParseFaultPolicy decodes a comma-separated key=value policy description in
// the internal/fault grammar. Keys: rate, permanent (probabilities),
// latency (a Go duration), seed. An empty description is an error.
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	var p FaultPolicy
	if strings.TrimSpace(s) == "" {
		return p, errors.New("pager: empty fault policy")
	}
	if err := fault.Parse(s, p.fields()...); err != nil {
		return FaultPolicy{}, fmt.Errorf("pager: fault policy: %w", err)
	}
	return p, nil
}

// FaultStats counts what an injector actually did.
type FaultStats struct {
	// Reads is the number of physical reads the injector screened.
	Reads int64
	// Transient and Permanent count injected faults by kind.
	Transient int64
	Permanent int64
}

// Injected returns the total number of injected faults.
func (s FaultStats) Injected() int64 { return s.Transient + s.Permanent }

// FaultInjector draws deterministic faults for page reads according to a
// FaultPolicy. Pages that fail permanently stay failed forever. It is safe
// for concurrent use.
type FaultInjector struct {
	mu     sync.Mutex
	policy FaultPolicy
	rng    *rand.Rand
	dead   map[PageID]bool
	stats  FaultStats
}

// NewFaultInjector creates an injector for the policy.
func NewFaultInjector(policy FaultPolicy) (*FaultInjector, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &FaultInjector{
		policy: policy,
		rng:    rand.New(rand.NewSource(policy.Seed)),
		dead:   make(map[PageID]bool),
	}, nil
}

// Stats returns a copy of the injection counters.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// check screens one physical read of page id, returning the injected error
// if the read faults. Permanent faults are sticky per page.
func (fi *FaultInjector) check(id PageID) error {
	fi.mu.Lock()
	fi.stats.Reads++
	if fi.dead[id] {
		fi.stats.Permanent++
		latency := fi.policy.Latency
		fi.mu.Unlock()
		if latency > 0 {
			time.Sleep(latency)
		}
		return fmt.Errorf("%w: page %d", ErrPermanentFault, id)
	}
	if fi.policy.Rate <= 0 || fi.rng.Float64() >= fi.policy.Rate {
		fi.mu.Unlock()
		return nil
	}
	permanent := fi.rng.Float64() < fi.policy.PermanentRate
	var err error
	if permanent {
		fi.dead[id] = true
		fi.stats.Permanent++
		err = fmt.Errorf("%w: page %d", ErrPermanentFault, id)
	} else {
		fi.stats.Transient++
		err = fmt.Errorf("%w: page %d", ErrTransientFault, id)
	}
	latency := fi.policy.Latency
	fi.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return err
}

// DeadPages returns the ids of permanently failed pages, sorted ascending.
func (fi *FaultInjector) DeadPages() []PageID {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	out := make([]PageID, 0, len(fi.dead))
	for id := range fi.dead {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// DefaultRetryPolicy returns the read path's transient-fault retry policy:
// 4 retries starting at 100 µs and capped at 5 ms — enough to ride out low
// transient fault rates without stalling on dead pages. It is un-jittered,
// so per-query I/O timing stays deterministic under injected faults.
func DefaultRetryPolicy() retry.Policy {
	return retry.Policy{MaxRetries: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: 5 * time.Millisecond}
}
