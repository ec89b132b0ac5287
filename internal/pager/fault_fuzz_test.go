package pager

import (
	"testing"

	"skydiver/internal/retry"
)

// FuzzFaultPolicy exercises the policy decoder and the injected-fault retry
// path together: any string either fails to parse or yields a policy that
// (a) round-trips through String, and (b) drives the buffer pool's retry
// loop without panics, with every read returning data or a wrapped fault
// sentinel and retries bounded by the policy.
func FuzzFaultPolicy(f *testing.F) {
	f.Add("rate=0.01")
	f.Add("rate=0.5,permanent=0.25,latency=0s,seed=7")
	f.Add("rate=1,permanent=1")
	f.Add("rate=,permanent=nan")
	f.Add("latency=2h,rate=0.99,seed=-1")
	// Canonical String() encodings, seeding the corpus with exact round-trip
	// shapes (see TestFaultPolicyRoundTrip).
	f.Add("rate=0,permanent=0,latency=0s,seed=0")
	f.Add("rate=0.01,permanent=0,latency=0s,seed=7")
	f.Add("rate=1,permanent=0.25,latency=2ms,seed=-1")
	f.Add("rate=0.3333333333333333,permanent=1,latency=1m3s,seed=9223372036854775807")
	f.Fuzz(func(t *testing.T, s string) {
		policy, err := ParseFaultPolicy(s)
		if err != nil {
			return
		}
		if err := policy.Validate(); err != nil {
			t.Fatalf("parsed policy %+v fails validation: %v", policy, err)
		}
		again, err := ParseFaultPolicy(policy.String())
		if err != nil || again != policy {
			t.Fatalf("round trip of %+v via %q = %+v, %v", policy, policy.String(), again, err)
		}
		// Keep the fuzz iteration fast: don't actually sleep out big latencies.
		policy.Latency = 0
		fi, err := NewFaultInjector(policy)
		if err != nil {
			t.Fatalf("injector for valid policy %+v: %v", policy, err)
		}
		store := NewPageStore()
		ids := []PageID{store.Allocate(), store.Allocate(), store.Allocate()}
		store.SetFaultInjector(fi)
		pool := NewBufferPool(store, 2)
		rp := retry.Policy{MaxRetries: 3}
		pool.SetRetryPolicy(rp)
		decode := func(raw []byte) (any, error) { return len(raw), nil }
		var before int64
		for i := 0; i < 32; i++ {
			id := ids[i%len(ids)]
			v, err := pool.Get(id, decode)
			if err == nil && v.(int) != PageSize {
				t.Fatalf("read %d decoded %v", i, v)
			}
			spent := pool.Stats().Retries - before
			before = pool.Stats().Retries
			if spent > int64(rp.MaxRetries) {
				t.Fatalf("read %d used %d retries, policy allows %d", i, spent, rp.MaxRetries)
			}
		}
		_ = fi.Stats()
		_ = fi.DeadPages()
	})
}
