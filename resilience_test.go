package skydiver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sameSelection(a, b *Result) bool {
	if a == nil || b == nil || len(a.Indexes) != len(b.Indexes) || a.ObjectiveValue != b.ObjectiveValue {
		return false
	}
	for i := range a.Indexes {
		if a.Indexes[i] != b.Indexes[i] {
			return false
		}
	}
	return true
}

// TestAdmissionOverload is the tentpole overload test: MaxInFlight=4 and a
// 64-query wave. Every query must either be admitted — and then return a
// result bit-identical to the sequential answer — or be shed with
// ErrOverloaded within the queue deadline. No goroutines may leak.
func TestAdmissionOverload(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// NoCache makes every admitted query redo Phase 1, so the wave actually
	// occupies the slots long enough for the queue to fill and shed.
	opts := Options{K: 5, SignatureSize: 64, Seed: 1, NoCache: true}
	want, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetAdmissionPolicy(AdmissionPolicy{MaxInFlight: 4, MaxQueue: 8, QueueWait: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	const wave = 64
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ds.DiversifyContext(context.Background(), opts)
			if err != nil {
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected error: %v", err)
				}
				shed.Add(1)
				return
			}
			if !sameSelection(res, want) {
				t.Errorf("admitted query diverged: got %v, want %v", res.Indexes, want.Indexes)
			}
			admitted.Add(1)
		}()
	}
	wg.Wait()

	if got := admitted.Load() + shed.Load(); got != wave {
		t.Fatalf("admitted %d + shed %d != %d", admitted.Load(), shed.Load(), wave)
	}
	if admitted.Load() < 4 {
		t.Errorf("only %d admitted, want at least MaxInFlight", admitted.Load())
	}
	// With 4 slots, an 8-deep queue and a 50 ms queue deadline, a 64-query
	// instantaneous wave must shed some load.
	if shed.Load() == 0 {
		t.Error("64-query wave against 4 slots shed nothing")
	}
	// Shedding is bounded by the queue deadline; the whole wave finishing is
	// a (very loose) proxy that nothing waited unboundedly.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("wave took %v", elapsed)
	}
	s := ds.AdmissionStats()
	if s.InFlight != 0 || s.Waiting != 0 {
		t.Errorf("limiter not drained: %+v", s)
	}
	if s.Admitted != admitted.Load()+1-1 { // wave admissions only; baseline ran before the policy
		if s.Admitted != admitted.Load() {
			t.Errorf("stats admitted %d, workers counted %d", s.Admitted, admitted.Load())
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after the wave", before, after)
	}

	// Removing the policy restores unlimited admission.
	if err := ds.SetAdmissionPolicy(AdmissionPolicy{}); err != nil {
		t.Fatal(err)
	}
	if ds.admissionLimiter() != nil {
		t.Fatal("zero policy did not remove the limiter")
	}
}

// TestAdmissionFailFast: with no queue, excess arrivals are shed immediately
// and a queued-over-deadline arrival is shed once the deadline passes.
func TestAdmissionFailFast(t *testing.T) {
	ds, err := Generate(Independent, 1000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetAdmissionPolicy(AdmissionPolicy{MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	lim := ds.admissionLimiter()
	if err := lim.Acquire(context.Background()); err != nil { // occupy the only slot
		t.Fatal(err)
	}
	defer lim.Release()
	if _, err := ds.Diversify(Options{K: 2, SignatureSize: 16, Seed: 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// TestBreakerTripsAndRecovers is the tentpole breaker test: a high-rate
// transient FaultPolicy trips the breaker, subsequent queries fail fast with
// ErrCircuitOpen instead of burning retry sleeps, and once the fault rate
// drops the half-open probes close it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 64, Seed: 1, UseIndex: true, NoCache: true}
	want, err := ds.Diversify(opts)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := ParseFaultPolicy("rate=1,latency=0,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.InjectFaults(policy); err != nil {
		t.Fatal(err)
	}
	if err := ds2.SetBreakerPolicy(BreakerPolicy{Window: 16, MinSamples: 4, TripRatio: 0.5, Cooldown: 20 * time.Millisecond, Probes: 2}); err != nil {
		t.Fatal(err)
	}

	// Every physical read faults: the first query trips the breaker.
	if _, err := ds2.Diversify(opts); err == nil {
		t.Fatal("query against a fully faulting store succeeded")
	}
	st, ok := ds2.BreakerStats()
	if !ok || st.Trips == 0 {
		t.Fatalf("breaker did not trip: %+v", st)
	}

	// While open, queries fail fast with the sentinel: no retry sleeps, no
	// injected fault latency. Generous bound — an un-broken retry loop at
	// rate=1 would spin through MaxRetries per page for thousands of pages.
	_, retriesBefore := ds2.FaultStats()
	start := time.Now()
	_, err = ds2.Diversify(opts)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("open-breaker query took %v, not a fast fail", elapsed)
	}
	// An un-broken query at rate=1 retries MaxRetries times per page over
	// thousands of pages; with the breaker open only a stray half-open probe
	// (the 20 ms cooldown may lapse mid-query) can add a handful.
	_, retriesAfter := ds2.FaultStats()
	if retriesAfter > retriesBefore+16 {
		t.Errorf("open breaker still retried: %d -> %d", retriesBefore, retriesAfter)
	}
	st, _ = ds2.BreakerStats()
	if st.FastFails == 0 {
		t.Errorf("no fast fails recorded: %+v", st)
	}

	// Lower the fault rate to zero and wait out the cooldown: half-open
	// probes see a healthy store and close the breaker.
	if err := ds2.InjectFaults(FaultPolicy{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	res, err := ds2.Diversify(opts)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if !sameSelection(res, want) {
		t.Errorf("post-recovery selection %v, want %v", res.Indexes, want.Indexes)
	}
	st, _ = ds2.BreakerStats()
	if st.State != BreakerClosed {
		t.Errorf("state = %v after recovery, want closed", st.State)
	}
	if st.Probes == 0 {
		t.Errorf("breaker closed without probing: %+v", st)
	}
}

// TestBudgetExhaustionPartial is the tentpole budget test: a page budget
// smaller than a cold Phase 1 surfaces as ErrBudgetExceeded through the
// anytime machinery — flagged partial or degraded, never silent truncation.
func TestBudgetExhaustionPartial(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 64, Seed: 1, Budget: Budget{MaxPageReads: 2}}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res != nil && !res.Partial {
		t.Error("budget exhaustion returned an unflagged result")
	}
	// Same exhaustion with AllowDegraded serves a degraded answer instead.
	opts.AllowDegraded = true
	res, err = ds.DiversifyContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if !res.Degraded || res.DegradedReason == "" {
		t.Fatalf("result not marked degraded: %+v", res)
	}
	if len(res.Indexes) != opts.K {
		t.Errorf("degraded result has %d points, want %d", len(res.Indexes), opts.K)
	}
}

// TestBudgetWallDimension: the wall budget surfaces as ErrBudgetExceeded (not
// the caller-deadline sentinel) and names the wall-clock dimension.
func TestBudgetWallDimension(t *testing.T) {
	ds, err := Generate(Anticorrelated, 8000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 64, Seed: 1, Budget: Budget{MaxWall: time.Nanosecond}}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Error("wall budget must be distinguishable from the caller's deadline")
	}
	if res != nil && !res.Partial {
		t.Error("unflagged result on wall exhaustion")
	}
}

// TestBudgetedResultMatchesPlain: a budget generous enough to never trigger
// yields exactly the plain path's answer.
func TestBudgetedResultMatchesPlain(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := Options{K: 6, SignatureSize: 64, Seed: 1}
	want, err := ds.Diversify(plain)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := plain
	budgeted.Budget = Budget{MaxPageReads: 1 << 40, MaxEstimations: 1 << 40, MaxWall: time.Hour}
	got, err := ds.Diversify(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSelection(got, want) {
		t.Errorf("budgeted selection %v, want %v", got.Indexes, want.Indexes)
	}
	if got.Degraded {
		t.Error("untriggered budget marked the result degraded")
	}
}

// TestDegradeBudgetPartialPrefix: exhaustion mid-selection with AllowDegraded
// serves the valid prefix as a degraded result instead of an error.
func TestDegradeBudgetPartialPrefix(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the fingerprint so the estimation budget is spent in selection.
	warm := Options{K: 2, SignatureSize: 64, Seed: 1}
	if _, err := ds.Diversify(warm); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 8, SignatureSize: 64, Seed: 1, AllowDegraded: true,
		Budget: Budget{MaxEstimations: int64(len(sky)) + 2}}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if !res.Degraded || res.DegradedReason != DegradedBudgetPartial {
		t.Fatalf("reason = %q (degraded=%v), want %q", res.DegradedReason, res.Degraded, DegradedBudgetPartial)
	}
	if len(res.Indexes) == 0 || len(res.Indexes) >= opts.K {
		t.Errorf("prefix of %d points, want a non-empty strict prefix of %d", len(res.Indexes), opts.K)
	}
	if !res.Partial {
		t.Error("budget-partial result must keep the Partial flag")
	}
}

// TestDegradeCachedFingerprint: when the page budget blocks Phase 1 but a
// same-shape fingerprint (different seed) is resident, the ladder serves from
// it and reports cached-fingerprint.
func TestDegradeCachedFingerprint(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Diversify(Options{K: 5, SignatureSize: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 64, Seed: 99, AllowDegraded: true,
		Budget: Budget{MaxPageReads: 1}}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if res.DegradedReason != DegradedCachedFingerprint {
		t.Fatalf("reason = %q, want %q", res.DegradedReason, DegradedCachedFingerprint)
	}
	if len(res.Indexes) != 5 {
		t.Errorf("served %d points, want 5", len(res.Indexes))
	}
}

// TestDegradeReducedSignature: a resident fingerprint of a different shape
// (smaller T) is still served, reported as reduced-signature.
func TestDegradeReducedSignature(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Diversify(Options{K: 5, SignatureSize: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 128, Seed: 1, AllowDegraded: true,
		Budget: Budget{MaxPageReads: 1}}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if res.DegradedReason != DegradedReducedSignature {
		t.Fatalf("reason = %q, want %q", res.DegradedReason, DegradedReducedSignature)
	}
}

// TestDegradeIndexFree: with the index store faulting permanently and no
// cached fingerprint, an index-based query falls back to the in-memory
// sequential pipeline and reports index-free.
func TestDegradeIndexFree(t *testing.T) {
	ds, err := Generate(Anticorrelated, 4000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := ParseFaultPolicy("rate=1,permanent=1,latency=0,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InjectFaults(policy); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, SignatureSize: 64, Seed: 1, UseIndex: true, NoCache: true, AllowDegraded: true}
	res, err := ds.DiversifyContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if res.DegradedReason != DegradedIndexFree {
		t.Fatalf("reason = %q, want %q", res.DegradedReason, DegradedIndexFree)
	}
	if len(res.Indexes) != 5 {
		t.Errorf("served %d points, want 5", len(res.Indexes))
	}
}

// TestDegradeRefusesNonDegradable: cancellations pass through the ladder
// unchanged, and exact/greedy algorithms are never served approximations.
func TestDegradeRefusesNonDegradable(t *testing.T) {
	ds, err := Generate(Anticorrelated, 2000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.DiversifyContext(cancelled, Options{K: 3, SignatureSize: 32, Seed: 1, AllowDegraded: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through the ladder", err)
	}
	// Greedy evaluates exact distances against the dataset; there is nothing
	// cheaper to degrade to, so budget exhaustion surfaces as the error.
	opts := Options{K: 3, Algorithm: Greedy, SignatureSize: 32, Seed: 1, AllowDegraded: true,
		Budget: Budget{MaxPageReads: 1}}
	if _, err := ds.DiversifyContext(context.Background(), opts); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded for non-degradable algorithm", err)
	}
}

func TestParseBudgetSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Budget
		ok   bool
	}{
		{"", Budget{}, true},
		{"pages=512", Budget{MaxPageReads: 512}, true},
		{"pages=512,wall=50ms,est=1000", Budget{MaxPageReads: 512, MaxWall: 50 * time.Millisecond, MaxEstimations: 1000}, true},
		{" wall = 2s ", Budget{MaxWall: 2 * time.Second}, true},
		{"PAGES=5", Budget{MaxPageReads: 5}, true},
		{"est=1000000", Budget{MaxEstimations: 1000000}, true},
		{"pages=-1", Budget{}, false},
		{"pages=abc", Budget{}, false},
		{"bogus=1", Budget{}, false},
		{"pages", Budget{}, false},
		{"pages=1,pages=2", Budget{}, false},
		{"wall=5ms,wall=1h", Budget{}, false},
		{"wall=-1ms", Budget{}, false},
		{"est=1e6", Budget{}, false},
	}
	for _, tc := range cases {
		got, err := ParseBudget(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseBudget(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBudget(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if back, err := ParseBudget(got.String()); err != nil || back != got {
			t.Errorf("round trip of %+v via %q = %+v, %v", got, got.String(), back, err)
		}
	}
}
