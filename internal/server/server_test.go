package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skydiver"
)

// newTestServer builds a server over one small registered dataset plus an
// httptest frontend. Chaos endpoints are enabled.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, *httptest.Server, *skydiver.Dataset) {
	t.Helper()
	ds, err := skydiver.Generate(skydiver.Anticorrelated, n, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Open("default", ds); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	cfg.Chaos = true
	cfg.Logf = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, ds
}

// get fetches a URL and decodes the JSON body into out (when non-nil).
func get(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

func TestServerQueryTaxonomy(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 3000)
	c := ts.Client()

	// 200 full.
	var full QueryResponse
	resp := get(t, c, ts.URL+"/query?k=4&t=32&seed=1", &full)
	if resp.StatusCode != http.StatusOK || full.Status != ClassFull || len(full.Indexes) != 4 {
		t.Fatalf("full query: status=%d body=%+v", resp.StatusCode, full)
	}
	if full.Partial || full.Degraded {
		t.Fatalf("full query flagged partial/degraded: %+v", full)
	}

	// Identical query again: fingerprint cache must serve it.
	var cached QueryResponse
	get(t, c, ts.URL+"/query?k=4&t=32&seed=1", &cached)
	if !cached.FingerprintCached {
		t.Errorf("second identical query not served from fingerprint cache")
	}

	// k=1: a one-element selection has an infinite min pairwise distance,
	// which encoding/json refuses to marshal — the objective field must be
	// omitted, not the whole body (this used to be an empty 200 response).
	var one QueryResponse
	resp = get(t, c, ts.URL+"/query?k=1&t=32&seed=1", &one)
	if resp.StatusCode != http.StatusOK || one.Status != ClassFull || len(one.Indexes) != 1 {
		t.Fatalf("k=1 query: status=%d body=%+v", resp.StatusCode, one)
	}
	if one.Objective != nil {
		t.Errorf("k=1 objective = %v, want omitted (non-finite)", *one.Objective)
	}

	// 400: malformed k, bad algo, bad timeout, K beyond the skyline.
	for _, u := range []string{
		"/query?k=zero", "/query?k=-1", "/query?algo=quantum",
		"/query?timeout=yesterday", "/query?budget=pages=-4", "/query?k=100000",
	} {
		var eb errorBody
		resp := get(t, c, ts.URL+u, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Class != ClassBadRequest {
			t.Errorf("%s: status=%d class=%q, want 400 bad_request", u, resp.StatusCode, eb.Class)
		}
	}

	// 404 unknown dataset.
	var eb errorBody
	resp = get(t, c, ts.URL+"/query?dataset=ghost", &eb)
	if resp.StatusCode != http.StatusNotFound || eb.Class != ClassNotFound {
		t.Fatalf("unknown dataset: status=%d class=%q", resp.StatusCode, eb.Class)
	}

	// 200 partial via a microscopic deadline: valid prefix of the full
	// answer (anytime contract), possibly empty.
	var part QueryResponse
	resp = get(t, c, ts.URL+"/query?k=4&t=32&seed=1&timeout=1ns&nocache=1", &part)
	if resp.StatusCode != http.StatusOK || part.Status != ClassPartial || !part.Partial {
		t.Fatalf("deadline query: status=%d body=%+v", resp.StatusCode, part)
	}
	if part.Reason != "deadline" {
		t.Errorf("deadline partial reason = %q", part.Reason)
	}
	for i, idx := range part.Indexes {
		if idx != full.Indexes[i] {
			t.Errorf("partial prefix diverges at %d: %v vs %v", i, part.Indexes, full.Indexes)
		}
	}

	// 200 partial via budget exhaustion.
	var bpart QueryResponse
	resp = get(t, c, ts.URL+"/query?k=4&t=32&seed=1&nocache=1&budget=pages=1", &bpart)
	if resp.StatusCode != http.StatusOK || bpart.Status != ClassPartial || bpart.Reason != "budget" {
		t.Fatalf("budget query: status=%d body=%+v", resp.StatusCode, bpart)
	}

	// 200 degraded: same starved budget, shedding allowed — the ladder must
	// serve an answer with a machine-readable reason.
	var deg QueryResponse
	resp = get(t, c, ts.URL+"/query?k=4&t=32&seed=1&nocache=1&budget=pages=1&degraded=1", &deg)
	if resp.StatusCode != http.StatusOK || deg.Status != ClassDegraded || !deg.Degraded || deg.Reason == "" {
		t.Fatalf("degraded query: status=%d body=%+v", resp.StatusCode, deg)
	}
}

// TestServerPanicRecovery hits the chaos panic endpoint and checks the
// process converts it into a 500 and keeps serving.
func TestServerPanicRecovery(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 500)
	c := ts.Client()
	for i := 0; i < 3; i++ {
		var eb errorBody
		resp := get(t, c, ts.URL+"/boom", &eb)
		if resp.StatusCode != http.StatusInternalServerError || eb.Class != ClassPanic {
			t.Fatalf("boom %d: status=%d class=%q", i, resp.StatusCode, eb.Class)
		}
	}
	if got := srv.panics.Load(); got != 3 {
		t.Errorf("panic counter = %d, want 3", got)
	}
	// Still alive and serving real queries.
	var qr QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=3&t=16", &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panics: %d", resp.StatusCode)
	}
}

// TestServerShedReconciliation drives an overloaded dataset with concurrent
// cold queries and asserts the acceptance identity: client-observed 429s
// carry Retry-After and match the server's shed counter, and every response
// class the client saw reconciles with /stats.
func TestServerShedReconciliation(t *testing.T) {
	_, ts, ds := newTestServer(t, Config{}, 20000)
	if err := ds.SetAdmissionPolicy(skydiver.AdmissionPolicy{MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	c := ts.Client()

	const waves = 48
	var mu sync.Mutex
	tally := map[string]int64{}
	var wg sync.WaitGroup
	for i := 0; i < waves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Get(fmt.Sprintf("%s/query?k=3&t=32&seed=1&nocache=1", ts.URL))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var class string
			switch resp.StatusCode {
			case http.StatusOK:
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				class = qr.Status
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without Retry-After")
				}
				var eb errorBody
				_ = json.Unmarshal(body, &eb)
				class = eb.Class
			default:
				t.Errorf("query %d: unexpected status %d: %s", i, resp.StatusCode, body)
				return
			}
			mu.Lock()
			tally[class]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	var stats struct {
		Server struct {
			Responses map[string]int64 `json:"responses"`
		} `json:"server"`
		Datasets []struct {
			Admission skydiver.AdmissionStats `json:"admission"`
		} `json:"datasets"`
	}
	get(t, c, ts.URL+"/stats", &stats)
	for class, n := range tally {
		if got := stats.Server.Responses[class]; got != n {
			t.Errorf("class %q: server counted %d, client observed %d", class, got, n)
		}
	}
	if tally[ClassShed] == 0 {
		t.Log("note: no sheds this run (scheduler served all queries serially)")
	} else if len(stats.Datasets) == 0 || stats.Datasets[0].Admission.ShedQueueFull != tally[ClassShed] {
		t.Errorf("dataset shed counter %+v does not match client 429s %d",
			stats.Datasets, tally[ClassShed])
	}
	var total int64
	for _, n := range tally {
		total += n
	}
	if total != waves {
		t.Errorf("client tally sums to %d, want %d", total, waves)
	}
}

// TestServerTenantAdmission verifies the per-tenant layer sheds one tenant's
// flood without touching another tenant's traffic.
func TestServerTenantAdmission(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		TenantPolicy: skydiver.AdmissionPolicy{MaxInFlight: 1},
	}, 20000)
	c := ts.Client()

	var shed429, ok200 int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Get(ts.URL + "/query?k=3&t=32&nocache=1&tenant=noisy")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				shed429++
			case http.StatusOK:
				ok200++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	// A different tenant is untouched by the noisy tenant's limiter.
	var qr QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=3&t=32&tenant=quiet", &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant: status %d", resp.StatusCode)
	}
	var stats struct {
		Tenants map[string]skydiver.AdmissionStats `json:"tenants"`
	}
	get(t, c, ts.URL+"/stats", &stats)
	noisy := stats.Tenants["noisy"]
	if noisy.ShedQueueFull != shed429 {
		t.Errorf("noisy tenant sheds: server %d, client %d", noisy.ShedQueueFull, shed429)
	}
	if quiet := stats.Tenants["quiet"]; quiet.Admitted != 1 || quiet.ShedQueueFull != 0 {
		t.Errorf("quiet tenant stats: %+v", quiet)
	}
}

// TestServerDrain pins the graceful-shutdown sequence: BeginDrain flips
// /readyz unready and sheds new queries with 503 while /healthz stays live,
// and Drain completes within the deadline, closing every dataset.
func TestServerDrain(t *testing.T) {
	srv, ts, ds := newTestServer(t, Config{}, 3000)
	c := ts.Client()

	var ready struct {
		Ready bool `json:"ready"`
	}
	if resp := get(t, c, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz before drain: %d %+v", resp.StatusCode, ready)
	}

	// Park a slow query in flight (storage latency via chaos faults makes
	// the cold pass take a while), then start draining under it.
	faultsURL := ts.URL + "/datasets/default/faults?policy=rate%3D0.8%2Clatency%3D3ms%2Cseed%3D7"
	req, _ := http.NewRequest(http.MethodPost, faultsURL, nil)
	if resp, err := c.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("installing faults: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	slow := make(chan *http.Response, 1)
	go func() {
		resp, err := c.Get(ts.URL + "/query?k=3&t=32&nocache=1&timeout=400ms")
		if err != nil {
			t.Error(err)
			close(slow)
			return
		}
		slow <- resp
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query enter the gate

	srv.BeginDrain()
	var eb errorBody
	if resp := get(t, c, ts.URL+"/query?k=3", &eb); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", resp.StatusCode)
	}
	if resp := get(t, c, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if resp := get(t, c, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp, ok := <-slow; ok {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("in-flight query finished with %d", resp.StatusCode)
		}
	}
	if _, err := ds.Skyline(); !errors.Is(err, skydiver.ErrDatasetClosed) {
		t.Fatalf("dataset not closed after Drain: %v", err)
	}
}

// TestServerEvictEndpoint exercises the DELETE lifecycle endpoint under
// concurrent traffic.
func TestServerEvictEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 3000)
	c := ts.Client()

	// Register a second dataset over HTTP.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/datasets?name=extra&gen=ind&n=500&d=3", nil)
	resp, err := c.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("open extra: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	// Duplicate open → 409.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/datasets?name=extra&gen=ind&n=500&d=3", nil)
	resp, err = c.Do(req)
	if err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate open: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	var infos []DatasetInfo
	get(t, c, ts.URL+"/datasets", &infos)
	if len(infos) != 2 {
		t.Fatalf("datasets = %+v, want 2", infos)
	}

	// Evict under concurrent queries.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Get(ts.URL + "/query?dataset=extra&k=2&t=16")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable &&
				resp.StatusCode != http.StatusNotFound {
				t.Errorf("query during eviction: %d", resp.StatusCode)
			}
		}()
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/datasets/extra?drain=5s", nil)
	resp, err = c.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	wg.Wait()

	var eb errorBody
	if resp := get(t, c, ts.URL+"/query?dataset=extra&k=2", &eb); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after eviction: %d, want 404", resp.StatusCode)
	}
}

// TestServerReadyzBreakerOpen flips a dataset's breaker open with a fault
// storm and checks /readyz goes unready until recovery.
func TestServerReadyzBreakerOpen(t *testing.T) {
	_, ts, ds := newTestServer(t, Config{}, 3000)
	c := ts.Client()
	if err := ds.SetBreakerPolicy(skydiver.BreakerPolicy{
		Window: 16, MinSamples: 4, TripRatio: 0.5, Cooldown: 200 * time.Millisecond, Probes: 2,
	}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/datasets/default/faults?policy=rate%3D1.0%2Cseed%3D3", nil)
	if resp, err := c.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("installing faults: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	// Drive cold reads until the breaker trips.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Get(ts.URL + "/query?k=3&t=16&nocache=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if bs, ok := ds.BreakerStats(); ok && bs.State == skydiver.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped under a rate=1.0 fault storm")
		}
	}
	if resp := get(t, c, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: %d, want 503", resp.StatusCode)
	}
}

// TestServerMutationEndpoints exercises POST /datasets/{name}/points and
// DELETE /datasets/{name}/points/{row}: queries keep working across
// mutations, the fingerprint cache keeps serving (migrated, not rebuilt),
// the epoch advances, and /stats reports the mutation counters.
func TestServerMutationEndpoints(t *testing.T) {
	_, ts, ds := newTestServer(t, Config{}, 2000)
	c := ts.Client()

	// Warm the skyline and the fingerprint cache.
	var warm QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=3&t=32&seed=1", &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d", resp.StatusCode)
	}

	// Insert a point that dominates everything: it must become the skyline.
	var ins struct {
		Row   int    `json:"row"`
		Epoch uint64 `json:"epoch"`
		Live  int    `json:"live"`
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/datasets/default/points?p=0,0,0", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ins.Row != 2000 || ins.Epoch != 1 || ins.Live != 2001 {
		t.Fatalf("insert: status=%d body=%+v", resp.StatusCode, ins)
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) != 1 || sky[0] != ins.Row {
		t.Fatalf("post-insert skyline %v, want [%d]", sky, ins.Row)
	}

	// Delete it again: the old skyline points must come back, and a cached
	// query must still be served (the fingerprint was migrated twice).
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/datasets/default/points/%d", ts.URL, ins.Row), nil)
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	var after QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=3&t=32&seed=1", &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-delete query: status %d", resp.StatusCode)
	}
	if !after.FingerprintCached {
		t.Error("post-delete query was not served from the migrated fingerprint")
	}
	if len(after.Indexes) != len(warm.Indexes) {
		t.Fatalf("post-delete selection %v, want %v", after.Indexes, warm.Indexes)
	}
	for i := range warm.Indexes {
		if after.Indexes[i] != warm.Indexes[i] {
			t.Fatalf("post-delete selection %v, want %v", after.Indexes, warm.Indexes)
		}
	}

	// Errors: double delete and unknown row are 404s, malformed input 400s,
	// unknown dataset 404.
	for _, tc := range []struct {
		method, url string
		status      int
		class       string
	}{
		{http.MethodDelete, "/datasets/default/points/2000", http.StatusNotFound, ClassNotFound},
		{http.MethodDelete, "/datasets/default/points/99999", http.StatusNotFound, ClassNotFound},
		{http.MethodDelete, "/datasets/default/points/zero", http.StatusBadRequest, ClassBadRequest},
		{http.MethodDelete, "/datasets/ghost/points/0", http.StatusNotFound, ClassNotFound},
		{http.MethodPost, "/datasets/default/points", http.StatusBadRequest, ClassBadRequest},
		{http.MethodPost, "/datasets/default/points?p=1,2", http.StatusBadRequest, ClassBadRequest},
		{http.MethodPost, "/datasets/default/points?p=a,b,c", http.StatusBadRequest, ClassBadRequest},
		{http.MethodPost, "/datasets/ghost/points?p=1,2,3", http.StatusNotFound, ClassNotFound},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || eb.Class != tc.class {
			t.Errorf("%s %s: status=%d class=%q, want %d %s", tc.method, tc.url, resp.StatusCode, eb.Class, tc.status, tc.class)
		}
	}

	// /stats reports the mutation counters.
	var stats struct {
		Datasets []struct {
			Name      string                 `json:"name"`
			Mutations skydiver.MutationStats `json:"mutations"`
		} `json:"datasets"`
	}
	get(t, c, ts.URL+"/stats", &stats)
	if len(stats.Datasets) != 1 {
		t.Fatalf("stats datasets: %+v", stats.Datasets)
	}
	ms := stats.Datasets[0].Mutations
	if ms.Inserts != 1 || ms.Deletes != 1 || ms.Epoch != 2 || ms.Live != 2000 {
		t.Errorf("mutation stats = %+v, want 1 insert, 1 delete, epoch 2, 2000 live", ms)
	}
}

// TestServerSelectionCached: a cached /query answers with the indexes and
// objective of its nocache=1 recompute, reports selection_cached once an
// earlier read of at least as many points stored the key's pick order, and
// /stats counts those reads in the fingerprint cache's SelectionHits.
func TestServerSelectionCached(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 3000)
	c := ts.Client()
	reads := []struct {
		query string
		hit   bool
	}{
		{"k=6&t=32&seed=1", false},
		{"k=6&t=32&seed=1", true},
		{"k=3&t=32&seed=1", true},
		{"k=8&t=32&seed=1", false},
		{"k=6&t=32&seed=1&algo=lsh", false},
		{"k=1&t=32&seed=1&algo=lsh", true},
		{"k=8&t=32&seed=1", true},
	}
	for _, rd := range reads {
		var cached, fresh QueryResponse
		get(t, c, ts.URL+"/query?"+rd.query, &cached)
		get(t, c, ts.URL+"/query?"+rd.query+"&nocache=1", &fresh)
		if cached.Status != ClassFull || fresh.Status != ClassFull {
			t.Fatalf("%s: status %q, nocache %q", rd.query, cached.Status, fresh.Status)
		}
		sameObjective := (cached.Objective == nil) == (fresh.Objective == nil) &&
			(cached.Objective == nil || *cached.Objective == *fresh.Objective)
		if fmt.Sprint(cached.Indexes) != fmt.Sprint(fresh.Indexes) || !sameObjective {
			t.Errorf("%s: cached %v, nocache %v", rd.query, cached.Indexes, fresh.Indexes)
		}
		if cached.SelectionCached != rd.hit || fresh.SelectionCached {
			t.Errorf("%s: selection_cached = %v (nocache %v), want %v", rd.query, cached.SelectionCached, fresh.SelectionCached, rd.hit)
		}
	}
	var stats struct {
		Datasets []struct {
			FingerprintCache skydiver.FingerprintCacheStats `json:"fingerprint_cache"`
		} `json:"datasets"`
	}
	get(t, c, ts.URL+"/stats", &stats)
	if len(stats.Datasets) != 1 {
		t.Fatalf("stats datasets: %+v", stats.Datasets)
	}
	if got := stats.Datasets[0].FingerprintCache.SelectionHits; got != 4 {
		t.Errorf("SelectionHits = %d, want 4", got)
	}
}
