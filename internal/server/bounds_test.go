package server

import (
	"net/http"
	"runtime"
	"testing"
)

// TestServerBoundsRequestSizes: request parameters that size an allocation
// — the signature size t (a t×m matrix plus 2·t hash coefficients), the
// shard count (per-shard partition slices) and a generated dataset's n·d
// coordinates — are rejected with 400 before anything of that size is
// allocated, on the plain and on the resilient query path.
func TestServerBoundsRequestSizes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 3000)
	c := ts.Client()
	// Warm the skyline and index so the measured requests allocate only
	// what their own parameters ask for.
	if resp := get(t, c, ts.URL+"/query?k=4&t=32&seed=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up query: status %d", resp.StatusCode)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range []string{
		"/query?k=4&t=2000000000",
		"/query?k=4&t=2000000000&nocache=1&degraded=1&budget=pages=1000000",
		"/query?k=4&shards=2000000000",
		"/query?k=4&shards=2000000000&degraded=1&budget=est=1000000",
	} {
		var eb errorBody
		resp := get(t, c, ts.URL+u, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Class != ClassBadRequest {
			t.Errorf("%s: status=%d class=%q, want 400 bad_request", u, resp.StatusCode, eb.Class)
		}
	}
	for _, u := range []string{
		"/datasets?name=huge&gen=ind&n=2000000000",
		"/datasets?name=wide&gen=ind&d=1000000000",
	} {
		var eb errorBody
		resp := doJSON(t, c, http.MethodPost, ts.URL+u, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Class != ClassBadRequest {
			t.Errorf("POST %s: status=%d class=%q, want 400 bad_request", u, resp.StatusCode, eb.Class)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Errorf("rejected oversized requests allocated %d bytes", grown)
	}
}
