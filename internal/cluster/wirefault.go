// wirefault.go injects transport-level faults into a worker's shard
// endpoint — the network twin of the pager's storage FaultPolicy, written
// in the same key=value grammar (internal/fault). Policies
// are set per worker at runtime (POST /faults), so a chaos harness can make
// one node drop connections, delay, corrupt response bytes or fail with 5xx
// mid-wave and watch the coordinator's retry/hedge/failover envelope absorb
// it. Injection is deterministic per seed.
package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"skydiver/internal/fault"
	"skydiver/internal/retry"
)

// WireFaultPolicy configures injected transport faults on a worker's shard
// endpoint. Each request draws one outcome; at most one fault kind applies
// per request, screened in order drop → fail → corrupt → delay.
type WireFaultPolicy struct {
	// Drop is the probability the connection is severed with no response.
	Drop float64
	// Fail is the probability of an injected 500 response.
	Fail float64
	// Corrupt is the probability a response byte is flipped in flight.
	Corrupt float64
	// Delay is added before handling when DelayRate hits (DelayRate defaults
	// to 1 when a Delay is set with no explicit rate).
	Delay     time.Duration
	DelayRate float64
	// Seed drives the fault lottery.
	Seed int64
}

func (p *WireFaultPolicy) fields() []fault.Field {
	return []fault.Field{
		fault.Prob("drop", &p.Drop),
		fault.Prob("fail", &p.Fail),
		fault.Prob("corrupt", &p.Corrupt),
		fault.Duration("delay", &p.Delay),
		fault.Prob("delayrate", &p.DelayRate),
		fault.Int("seed", &p.Seed),
	}
}

// ParseWireFaultPolicy decodes a comma-separated key=value wire-fault
// description in the internal/fault grammar, e.g.
// "drop=0.1,fail=0.2,corrupt=0.1,delay=20ms,seed=7". Keys: drop, fail,
// corrupt, delayrate (probabilities), delay (a Go duration), seed. Since one
// draw screens drop, fail and corrupt cumulatively, their sum may not exceed
// 1. A delay without a rate fires on every request. An empty string is the
// zero (disabled) policy.
func ParseWireFaultPolicy(s string) (WireFaultPolicy, error) {
	var p WireFaultPolicy
	if err := fault.Parse(s, p.fields()...); err != nil {
		return WireFaultPolicy{}, fmt.Errorf("cluster: wire fault policy: %w", err)
	}
	if sum := p.Drop + p.Fail + p.Corrupt; sum > 1 {
		return WireFaultPolicy{}, fmt.Errorf("cluster: wire fault policy: drop+fail+corrupt = %v exceeds 1", sum)
	}
	if p.Delay > 0 && p.DelayRate == 0 {
		p.DelayRate = 1
	}
	return p, nil
}

// Enabled reports whether any fault kind can fire.
func (p WireFaultPolicy) Enabled() bool {
	return p.Drop > 0 || p.Fail > 0 || p.Corrupt > 0 || (p.Delay > 0 && p.DelayRate > 0)
}

// String renders the policy in ParseWireFaultPolicy's format, leaving out
// zero fields and a delay's default rate of 1.
func (p WireFaultPolicy) String() string {
	if p.Delay > 0 && p.DelayRate == 1 {
		p.DelayRate = 0
	}
	return fault.Format(true, p.fields()...)
}

// WireFaultStats counts injected faults by kind.
type WireFaultStats struct {
	Drops    int64 `json:"drops"`
	Fails    int64 `json:"fails"`
	Corrupts int64 `json:"corrupts"`
	Delays   int64 `json:"delays"`
}

// wireInjector draws fault outcomes deterministically per seed.
type wireInjector struct {
	p  WireFaultPolicy
	mu sync.Mutex
	r  *rand.Rand

	drops, fails, corrupts, delays atomic.Int64
}

func newWireInjector(p WireFaultPolicy) *wireInjector {
	return &wireInjector{p: p, r: rand.New(rand.NewSource(p.Seed))}
}

func (in *wireInjector) stats() WireFaultStats {
	return WireFaultStats{
		Drops:    in.drops.Load(),
		Fails:    in.fails.Load(),
		Corrupts: in.corrupts.Load(),
		Delays:   in.delays.Load(),
	}
}

// wireFault is one request's drawn outcome.
type wireFault int

const (
	faultNone wireFault = iota
	faultDrop
	faultFail
	faultCorrupt
	faultDelay
)

// draw picks at most one fault for a request. The screening order matches
// the policy doc: drop, then fail, then corrupt, then delay.
func (in *wireInjector) draw() wireFault {
	in.mu.Lock()
	u := in.r.Float64()
	in.mu.Unlock()
	switch {
	case u < in.p.Drop:
		return faultDrop
	case u < in.p.Drop+in.p.Fail:
		return faultFail
	case u < in.p.Drop+in.p.Fail+in.p.Corrupt:
		return faultCorrupt
	case in.p.Delay > 0 && u < in.p.Drop+in.p.Fail+in.p.Corrupt+in.p.DelayRate:
		return faultDelay
	default:
		return faultNone
	}
}

// apply executes the drawn fault around the inner handler. Drop severs the
// connection via http.ErrAbortHandler (which httpx.Recover deliberately
// re-panics); fail writes a 500 without running the handler; corrupt wraps
// the writer so one response byte is flipped; delay sleeps (honoring the
// request context) before handling.
func (in *wireInjector) apply(next http.Handler, w http.ResponseWriter, r *http.Request) {
	switch in.draw() {
	case faultDrop:
		in.drops.Add(1)
		panic(http.ErrAbortHandler)
	case faultFail:
		in.fails.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error": "injected wire fault"}`)
	case faultCorrupt:
		in.corrupts.Add(1)
		next.ServeHTTP(&corruptWriter{ResponseWriter: w, target: corruptOffset}, r)
	case faultDelay:
		in.delays.Add(1)
		_ = retry.Sleep(r.Context(), in.p.Delay)
		next.ServeHTTP(w, r)
	default:
		next.ServeHTTP(w, r)
	}
}

// corruptOffset is the response-byte index a corrupt fault flips. Shallow
// enough that every shard-endpoint body contains it (the smallest is an
// error reply, about 30 bytes; a fold reply starts with its dimensions and
// matrix payload), so a corrupt draw always corrupts. Whether the flip lands
// in JSON structure (parse error) or payload bytes (checksum mismatch), the
// coordinator sees a retryable failure.
const corruptOffset = 20

// corruptWriter flips one bit pattern (XOR 0x20) in the byte stream at the
// target offset.
type corruptWriter struct {
	http.ResponseWriter
	n      int
	target int
	done   bool
}

func (w *corruptWriter) Write(b []byte) (int, error) {
	if !w.done && len(b) > 0 {
		if idx := w.target - w.n; idx < len(b) {
			if idx < 0 {
				idx = 0
			}
			c := append([]byte(nil), b...)
			c[idx] ^= 0x20
			w.done = true
			n, err := w.ResponseWriter.Write(c)
			w.n += n
			return n, err
		}
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}
