package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/retry"
	"skydiver/internal/skyline"
)

// testSpec is ANT-600-3D: 5 data pages, so a query cuts up to 5 shards
// and the tests' 4 shards are 4 non-empty page ranges.
func testSpec() DatasetSpec {
	return DatasetSpec{Gen: "ANT", N: 600, Dims: 3, Seed: 11}
}

// buildLocal regenerates the coordinator-side dataset and its skyline the
// same way production does, so worker-side copies must agree bit for bit.
func buildLocal(t *testing.T, spec DatasetSpec) (*data.Dataset, []int) {
	t.Helper()
	ds, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, skyline.ComputeSFS(ds)
}

// startWorkers brings up n in-process workers on httptest servers.
func startWorkers(t *testing.T, n int) ([]*Worker, []string) {
	t.Helper()
	workers := make([]*Worker, n)
	urls := make([]string, n)
	for i := range workers {
		w, err := NewWorker(WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		workers[i] = w
		urls[i] = srv.URL
	}
	return workers, urls
}

// tunedExecutor builds an executor over workers with the production tuning
// changed by set.
func tunedExecutor(t *testing.T, workers []string, set func(*tuning)) *Executor {
	t.Helper()
	tu := defaultTuning()
	set(&tu)
	ex, err := newExecutor(Config{Workers: workers}, tu)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// fastRetries is a retry budget with a 1 ms backoff base.
func fastRetries(n int) func(*tuning) {
	return func(tu *tuning) { tu.maxRetries, tu.baseDelay = n, time.Millisecond }
}

// allServed fails unless every shard of out was served, by the fleet or
// locally.
func allServed(t *testing.T, tag string, out Outcome) {
	t.Helper()
	if out.Remote+out.Local != out.Shards {
		t.Fatalf("%s: outcome %+v: remote + local != shards", tag, out)
	}
}

func wantFingerprint(t *testing.T, ds *data.Dataset, sky []int, q Query) *core.Fingerprint {
	t.Helper()
	fam, err := minhash.NewFamily(q.T, q.HashSeed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SigGenIFCtx(context.Background(), ds, sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func sameFingerprint(t *testing.T, tag string, got, want *core.Fingerprint) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil fingerprint", tag)
	}
	if len(got.DomScore) != len(want.DomScore) {
		t.Fatalf("%s: %d columns, want %d", tag, len(got.DomScore), len(want.DomScore))
	}
	for c := range want.DomScore {
		if got.DomScore[c] != want.DomScore[c] {
			t.Fatalf("%s: DomScore[%d] = %v, want %v", tag, c, got.DomScore[c], want.DomScore[c])
		}
		gc, wc := got.Matrix.Column(c), want.Matrix.Column(c)
		for s := range wc {
			if gc[s] != wc[s] {
				t.Fatalf("%s: col %d slot %d = %d, want %d", tag, c, s, gc[s], wc[s])
			}
		}
	}
	if got.IO != want.IO {
		t.Fatalf("%s: IO %+v, want %+v", tag, got.IO, want.IO)
	}
}

// TestRemoteFingerprintBitIdentical is the acceptance pin: with a healthy
// fleet, the remote fold equals the monolithic pass bit for bit for shard
// counts {1, 2, 4}, including the synthetic scan accounting.
func TestRemoteFingerprintBitIdentical(t *testing.T) {
	_, urls := startWorkers(t, 2)
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	for _, shards := range []int{1, 2, 4} {
		ex, err := New(Config{Workers: urls})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Spec: spec, Shards: shards, T: 32, HashSeed: 7}
		got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
		if err != nil {
			t.Fatalf("n=%d: %v", shards, err)
		}
		if out.Shards != shards || out.Remote != shards || out.Local != 0 {
			t.Fatalf("n=%d: outcome %+v, want all %d shards remote", shards, out, shards)
		}
		sameFingerprint(t, fmt.Sprintf("n=%d", shards), got, wantFingerprint(t, ds, sky, q))
	}
}

// TestRemoteFailoverOnDeadPrimary kills one of two workers outright: every
// shard it owned fails over to the replica and the answer stays exact.
func TestRemoteFailoverOnDeadPrimary(t *testing.T) {
	_, urls := startWorkers(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, []string{dead.URL, urls[1]}, fastRetries(1))
	q := Query{Spec: spec, Shards: 4, T: 32, HashSeed: 7}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "dead-primary", out)
	if out.Remote != 4 {
		t.Fatalf("outcome %+v, want all 4 shards served remotely via failover", out)
	}
	if out.Failovers == 0 {
		t.Fatalf("outcome %+v, want failovers > 0", out)
	}
	sameFingerprint(t, "dead-primary", got, wantFingerprint(t, ds, sky, q))
}

// TestRemoteWireFaultsStayExact drives the injected-fault envelope: the
// primary worker corrupts every response byte stream, so every shard it owns
// burns its retry budget and fails over — and the merged result is still bit
// identical.
func TestRemoteWireFaultsStayExact(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	workers[0].SetFaults(WireFaultPolicy{Corrupt: 1, Seed: 3})
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, urls, fastRetries(1))
	q := Query{Spec: spec, Shards: 4, T: 32, HashSeed: 7}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "corrupt-primary", out)
	if out.Remote != 4 || out.Retries == 0 || out.Failovers == 0 {
		t.Fatalf("outcome %+v, want 4 remote shards with retries and failovers", out)
	}
	sameFingerprint(t, "corrupt-primary", got, wantFingerprint(t, ds, sky, q))
	if st := workers[0].Stats(); st.WireFault.Corrupts == 0 {
		t.Fatalf("worker 0 injected no corruption: %+v", st.WireFault)
	}
}

// TestRemoteDropFaultsFailover: a worker that severs every connection looks
// like a transport failure; shards fail over and stay exact.
func TestRemoteDropFaultsFailover(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	workers[0].SetFaults(WireFaultPolicy{Drop: 1, Seed: 5})
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, urls, fastRetries(1))
	q := Query{Spec: spec, Shards: 2, T: 16, HashSeed: 1}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "drop-primary", out)
	if out.Remote != 2 || out.Failovers == 0 {
		t.Fatalf("outcome %+v, want both shards remote via failover", out)
	}
	sameFingerprint(t, "drop-primary", got, wantFingerprint(t, ds, sky, q))
}

// TestRemoteLocalFallbackWhenFleetDead: with every worker unreachable the
// ladder bottoms out at local recompute — the answer is exact, served
// entirely by the coordinator, and reported as such. With no retries
// asked for, none is made.
func TestRemoteLocalFallbackWhenFleetDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, []string{dead.URL}, fastRetries(0))
	q := Query{Spec: spec, Shards: 4, T: 32, HashSeed: 7}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "fleet-dead", out)
	if out.Local != 4 || out.Remote != 0 || out.Retries != 0 {
		t.Fatalf("outcome %+v, want all 4 shards local with no retries", out)
	}
	sameFingerprint(t, "fleet-dead", got, wantFingerprint(t, ds, sky, q))
}

// TestRemoteFailoverAloneStillExact: with no retries, a failing primary
// fails over once to the live replica, and both shards are still served by
// the fleet with the exact answer.
func TestRemoteFailoverAloneStillExact(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	workers[0].SetFaults(WireFaultPolicy{Fail: 1, Seed: 9})
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, urls, fastRetries(0))
	q := Query{Spec: spec, Shards: 2, T: 16, HashSeed: 1}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "failover", out)
	if out.Remote != 2 || out.Retries != 0 || out.Failovers != 1 {
		t.Fatalf("outcome %+v, want both shards remote after one failover and no retries", out)
	}
	sameFingerprint(t, "failover", got, wantFingerprint(t, ds, sky, q))
}

// TestRemoteEpochSkewServedLocally: a mutated coordinator (epoch > 0) never
// touches the network — every shard is served locally and the workers see
// no traffic.
func TestRemoteEpochSkewServedLocally(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Spec: spec, Epoch: 3, Shards: 4, T: 32, HashSeed: 7}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "epoch-skew", out)
	if out.Local != 4 || out.Remote != 0 {
		t.Fatalf("outcome %+v, want all shards local", out)
	}
	sameFingerprint(t, "epoch-skew", got, wantFingerprint(t, ds, sky, q))
	for i, w := range workers {
		if st := w.Stats(); st.Folds != 0 {
			t.Fatalf("worker %d served traffic on a skewed epoch: %+v", i, st)
		}
	}
}

// TestRemoteReplicaMismatchServedLocally: a fleet whose replicas hold other
// data (the query names a different generator seed than the coordinator's
// dataset) refuses every shard on the digest check, before any fold runs.
// Every shard takes the local rung, no worker reply is merged, and the
// answer is the coordinator's own SigGen-IF pass.
func TestRemoteReplicaMismatchServedLocally(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	other := spec
	other.Seed++
	q := Query{Spec: other, Shards: 4, T: 32, HashSeed: 7}

	ex, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "replica-mismatch", out)
	if out.Local != 4 || out.Remote != 0 || out.Retries != 0 || out.Failovers != 0 {
		t.Fatalf("outcome %+v, want all 4 shards local with no retries or failovers", out)
	}
	sameFingerprint(t, "replica-mismatch", got, wantFingerprint(t, ds, sky, q))
	for i, w := range workers {
		if st := w.Stats(); st.Folds != 0 {
			t.Fatalf("worker %d folded %d shards of a replica that holds other data", i, st.Folds)
		}
	}
}

// corruptFirstFold serves h but flips one bit inside the matrix payload of
// the first successful fold reply. The JSON frame stays valid, so only the
// matrix checksum can catch it.
func corruptFirstFold(t *testing.T, h http.Handler) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == PathSigFold && rec.Code == http.StatusOK && done.CompareAndSwap(false, true) {
			var resp FoldResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Error(err)
			}
			sig, err := base64.StdEncoding.DecodeString(resp.Sig)
			if err != nil {
				t.Error(err)
			}
			sig[len(sig)/2] ^= 0x20
			resp.Sig = base64.StdEncoding.EncodeToString(sig)
			if body, err = json.Marshal(resp); err != nil {
				t.Error(err)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestRemoteCorruptMatrixRetried: a reply whose matrix bytes were corrupted
// in flight fails the coordinator's reply validation as a retryable
// checksum error, so the shard is retried on its node and still served
// remotely, and the answer stays exact.
func TestRemoteCorruptMatrixRetried(t *testing.T) {
	w, err := NewWorker(WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(corruptFirstFold(t, w.Handler()))
	t.Cleanup(srv.Close)
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, []string{srv.URL}, fastRetries(2))
	q := Query{Spec: spec, Shards: 2, T: 32, HashSeed: 7}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "corrupt-matrix", out)
	if out.Remote != 2 || out.Local != 0 || out.Retries != 1 {
		t.Fatalf("outcome %+v, want both shards remote after one retry", out)
	}
	sameFingerprint(t, "corrupt-matrix", got, wantFingerprint(t, ds, sky, q))
	if st := ex.Stats(); st.Nodes[0].Faults != 1 {
		t.Fatalf("node faults = %d, want the one corrupt reply", st.Nodes[0].Faults)
	}
}

// TestRemoteHedging: a slow primary plus a fixed hedge delay races a
// duplicate on the replica; the fast copy wins and the answer stays exact.
func TestRemoteHedging(t *testing.T) {
	workers, urls := startWorkers(t, 2)
	workers[0].SetFaults(WireFaultPolicy{Delay: 300 * time.Millisecond, DelayRate: 1})
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, urls, func(tu *tuning) { tu.hedgeAfter = time.Millisecond })
	q := Query{Spec: spec, Shards: 2, T: 16, HashSeed: 1}
	got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
	if err != nil {
		t.Fatal(err)
	}
	allServed(t, "hedged", out)
	if out.Hedges == 0 {
		t.Fatalf("outcome %+v, want hedged requests", out)
	}
	if out.Remote != 2 {
		t.Fatalf("outcome %+v, want both shards remote", out)
	}
	sameFingerprint(t, "hedged", got, wantFingerprint(t, ds, sky, q))
}

// TestRemoteBreakerFastFails: repeated failures trip the per-node breaker;
// subsequent queries fast-fail into the fallback rungs instead of paying
// connection timeouts, and the answers stay exact throughout.
func TestRemoteBreakerFastFails(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	spec := testSpec()
	ds, sky := buildLocal(t, spec)
	ex := tunedExecutor(t, []string{dead.URL}, func(tu *tuning) {
		tu.maxRetries = 0
		tu.breaker = retry.BreakerPolicy{Window: 4, MinSamples: 2, TripRatio: 0.5, Cooldown: time.Minute, Probes: 1}
	})
	q := Query{Spec: spec, Shards: 4, T: 16, HashSeed: 1}
	for round := 0; round < 2; round++ {
		got, out, err := ex.Fingerprint(context.Background(), q, ds, sky)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		allServed(t, fmt.Sprintf("breaker round %d", round), out)
		if out.Local != 4 || out.Retries != 0 {
			t.Fatalf("round %d: outcome %+v, want all local with no retries", round, out)
		}
		sameFingerprint(t, fmt.Sprintf("breaker round %d", round), got, wantFingerprint(t, ds, sky, q))
	}
	st := ex.Stats()
	if st.FastFails == 0 {
		t.Fatalf("stats %+v, want breaker fast-fails after the first round tripped it", st)
	}
	if st.Nodes[0].Breaker != "open" {
		t.Fatalf("node breaker %q, want open", st.Nodes[0].Breaker)
	}
}

// TestWorkerBoundsRequestSizes: a shard count above the spec's row count, a
// signature size whose fingerprint would exceed the cap, skyline ids the
// fold would index with out of range, duplicated or descending, and a body
// beyond the 32 MiB cap are rejected with 400 before the worker allocates
// per-shard or per-slot state.
func TestWorkerBoundsRequestSizes(t *testing.T) {
	workers, urls := startWorkers(t, 1)
	post := func(path string, body any) int {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(urls[0]+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	spec := testSpec()
	if code := post(PathSigFold, ShardRequest{Spec: spec, Shards: 2_000_000_000, Shard: 0}); code != http.StatusBadRequest {
		t.Errorf("shards above the row count: status %d, want 400", code)
	}
	if code := post(PathSigFold, ShardRequest{Spec: spec, Shards: 1, Shard: 0, T: 2_000_000_000, HashSeed: 1, Sky: []int{0, 1, 2}}); code != http.StatusBadRequest {
		t.Errorf("oversized signature: status %d, want 400", code)
	}
	wide := spec
	wide.Dims = 1 << 30
	if code := post(PathSigFold, ShardRequest{Spec: wide, Shards: 1, Shard: 0}); code != http.StatusBadRequest {
		t.Errorf("dimensionality 2^30: status %d, want 400", code)
	}
	for _, sky := range [][]int{{0, 1 << 40}, {-3, 0}, {0, 0, 1}, {5, 2}, {0, spec.N}} {
		if code := post(PathSigFold, ShardRequest{Spec: spec, Shards: 1, Shard: 0, T: 16, HashSeed: 1, Sky: sky}); code != http.StatusBadRequest {
			t.Errorf("sky %v: status %d, want 400", sky, code)
		}
	}
	ds, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sky := []int{0, 2, spec.N - 1}
	if code := post(PathSigFold, ShardRequest{Spec: spec, Shards: 1, Shard: 0, T: 16, HashSeed: 1, Sky: sky,
		Digest: ReplicaDigest(ds, 0, spec.N, sky)}); code != http.StatusOK {
		t.Errorf("valid sky: status %d, want 200", code)
	}
	// Otherwise valid requests padded past the cap go straight to the
	// handler, streamed, so neither side of a connection has to hold them.
	valid, _ := json.Marshal(ShardRequest{Spec: spec, Shards: 1, Shard: 0, T: 16, HashSeed: 1, Sky: []int{0}})
	for path, head := range map[string]string{
		PathSigFold: string(valid[:len(valid)-1]) + `,"pad":"`,
		PathFaults:  `{"policy":"","pad":"`,
	} {
		body := io.MultiReader(strings.NewReader(head), io.LimitReader(fillReader('a'), 33<<20), strings.NewReader(`"}`))
		rec := httptest.NewRecorder()
		workers[0].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with a 33 MiB body: status %d, want 400", path, rec.Code)
		}
	}
}

// fillReader reads as an endless run of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestWorkerRejectsBadRequests pins the worker's client-error surface: bad
// epoch → 409, malformed addressing → 400, wrong method → 405.
func TestWorkerRejectsBadRequests(t *testing.T) {
	_, urls := startWorkers(t, 1)
	post := func(body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(urls[0]+PathSigFold, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	spec := testSpec()
	if resp := post(ShardRequest{Spec: spec, Epoch: 2, Shards: 2, Shard: 0}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("epoch 2: status %d, want 409", resp.StatusCode)
	}
	if resp := post(ShardRequest{Spec: spec, Shards: 2, Shard: 5}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shard index: status %d, want 400", resp.StatusCode)
	}
	if resp := post(ShardRequest{Spec: DatasetSpec{Gen: "nope", N: 10, Dims: 2}, Shards: 1, Shard: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad generator: status %d, want 400", resp.StatusCode)
	}
	huge := spec
	huge.N = 100_000_000
	if resp := post(ShardRequest{Spec: huge, Shards: 1, Shard: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized spec: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(urls[0] + PathSigFold)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestWorkerFaultsEndpoint sets and clears the wire-fault policy remotely.
func TestWorkerFaultsEndpoint(t *testing.T) {
	workers, urls := startWorkers(t, 1)
	set := func(policy string, wantStatus int) {
		t.Helper()
		raw, _ := json.Marshal(map[string]string{"policy": policy})
		resp, err := http.Post(urls[0]+PathFaults, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST /faults %q: status %d, want %d", policy, resp.StatusCode, wantStatus)
		}
	}
	set("drop=0.5,delay=10ms,seed=4", http.StatusOK)
	if st := workers[0].Stats(); st.WireFault.Policy != "drop=0.5,delay=10ms,seed=4" {
		t.Fatalf("policy = %q after set", st.WireFault.Policy)
	}
	set("", http.StatusOK)
	if st := workers[0].Stats(); st.WireFault.Policy != "" {
		t.Fatalf("policy = %q after clear", st.WireFault.Policy)
	}
	set("drop=2", http.StatusBadRequest)
	set("bogus", http.StatusBadRequest)
}

// TestWorkerDrain: a draining worker sheds shard requests with 503 and
// reports unhealthy, while /stats stays reachable.
func TestWorkerDrain(t *testing.T) {
	workers, urls := startWorkers(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if left := workers[0].Drain(ctx); left != 0 {
		t.Fatalf("drain left %d in flight", left)
	}
	raw, _ := json.Marshal(ShardRequest{Spec: testSpec(), Shards: 1, Shard: 0})
	resp, err := http.Post(urls[0]+PathSigFold, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shard request: status %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(urls[0] + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining health: status %d, want 503", hr.StatusCode)
	}
}

// TestMatrixWireRoundTrip pins the matrix encoding and its corruption
// detection.
func TestMatrixWireRoundTrip(t *testing.T) {
	m := minhash.NewMatrix(3, 2)
	m.UpdateColumn(0, []uint32{5, 10, 15})
	m.UpdateColumn(1, []uint32{1, 2, 3})
	sig, crc := EncodeMatrix(m)
	got, err := DecodeMatrix(sig, 3, 2, crc)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		gc, wc := got.Column(c), m.Column(c)
		for s := range wc {
			if gc[s] != wc[s] {
				t.Fatalf("col %d slot %d = %d, want %d", c, s, gc[s], wc[s])
			}
		}
	}
	if _, err := DecodeMatrix(sig, 3, 2, crc+1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad crc: err = %v, want ErrChecksum", err)
	}
	if _, err := DecodeMatrix(sig, 3, 3, crc); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad dims: err = %v, want ErrChecksum", err)
	}
	if _, err := DecodeMatrix("!!!", 3, 2, crc); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad base64: err = %v, want ErrChecksum", err)
	}
}

// TestParseWireFaultPolicyRoundTrip pins the policy string format and the
// shared grammar's rejects.
func TestParseWireFaultPolicyRoundTrip(t *testing.T) {
	for _, s := range []string{
		"",
		"drop=0.1",
		"drop=0.1,fail=0.2,corrupt=0.05,delay=20ms,seed=7",
		"delay=1s,delayrate=0.5",
		"seed=7",
		"DROP=0.5,Fail=0.5",
	} {
		p, err := ParseWireFaultPolicy(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		back, err := ParseWireFaultPolicy(p.String())
		if err != nil {
			t.Fatalf("%q → %q: %v", s, p.String(), err)
		}
		if back != p {
			t.Fatalf("%q: round-trip %+v != %+v", s, back, p)
		}
	}
	for _, s := range []string{
		"drop=2", "nope=1", "drop", "delay=xyz",
		"drop=NaN", "fail=nan", "delay=1ms,delayrate=NaN", "drop=0.1,drop=0.9",
		"delay=-5ms", "drop=0.7,fail=0.7", "drop=0.1,",
	} {
		if _, err := ParseWireFaultPolicy(s); err == nil {
			t.Fatalf("%q: want error", s)
		}
	}
}

// TestDatasetSpecValidate pins spec validation and key stability.
func TestDatasetSpecValidate(t *testing.T) {
	if err := (DatasetSpec{Gen: "IND", N: 10, Dims: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []DatasetSpec{
		{Gen: "XYZ", N: 10, Dims: 2},
		{Gen: "IND", N: 0, Dims: 2},
		{Gen: "IND", N: 10, Dims: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v: want error", bad)
		}
	}
	if _, err := New(Config{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("empty worker list: err = %v, want ErrNoWorkers", err)
	}
}

// TestNewUsesProductionTuning pins the production resilience settings: two
// retries per node, a 5 ms backoff base, p90-derived hedging and the
// default breaker policy.
func TestNewUsesProductionTuning(t *testing.T) {
	ex, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	want := tuning{maxRetries: 2, baseDelay: 5 * time.Millisecond, breaker: retry.DefaultBreakerPolicy()}
	if ex.tuning != want {
		t.Fatalf("tuning = %+v, want %+v", ex.tuning, want)
	}
}
