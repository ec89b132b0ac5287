package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// postJSON posts a JSON body and decodes the response into out (when
// non-nil), mirroring the get helper.
func postJSON(t *testing.T, client *http.Client, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp
}

// TestServerBatchEndpoint drives POST /datasets/{name}/points:batch through
// an insert batch and a delete batch, checks the amortized epoch accounting
// (one bump per batch, not per point) and that cached queries survive the
// composed fingerprint migration.
func TestServerBatchEndpoint(t *testing.T) {
	_, ts, ds := newTestServer(t, Config{}, 2000)
	c := ts.Client()

	var warm QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=3&t=32&seed=1", &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d", resp.StatusCode)
	}

	var ins struct {
		Rows  []int  `json:"rows"`
		Epoch uint64 `json:"epoch"`
		Live  int    `json:"live"`
	}
	resp := postJSON(t, c, ts.URL+"/datasets/default/points:batch",
		`{"insert":[[0.5,0.5,0.5],[0.2,0.9,0.4],[0.9,0.1,0.8]]}`, &ins)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert batch: status %d", resp.StatusCode)
	}
	if fmt.Sprint(ins.Rows) != "[2000 2001 2002]" || ins.Epoch != 1 || ins.Live != 2003 {
		t.Fatalf("insert batch response = %+v", ins)
	}

	var del struct {
		Deleted int    `json:"deleted"`
		Epoch   uint64 `json:"epoch"`
		Live    int    `json:"live"`
	}
	resp = postJSON(t, c, ts.URL+"/datasets/default/points:batch",
		`{"delete":[2000,2001,2002]}`, &del)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete batch: status %d", resp.StatusCode)
	}
	if del.Deleted != 3 || del.Epoch != 2 || del.Live != 2000 {
		t.Fatalf("delete batch response = %+v", del)
	}

	// The two migrations composed back to the original dataset: the warm
	// query is still answered from a (twice-migrated) fingerprint.
	var after QueryResponse
	get(t, c, ts.URL+"/query?k=3&t=32&seed=1", &after)
	if !after.FingerprintCached {
		t.Error("post-batch query was not served from the migrated fingerprint")
	}
	if fmt.Sprint(after.Indexes) != fmt.Sprint(warm.Indexes) {
		t.Errorf("post-batch selection %v, want %v", after.Indexes, warm.Indexes)
	}

	if ms := ds.MutationStats(); ms.Inserts != 3 || ms.Deletes != 3 || ms.Epoch != 2 {
		t.Errorf("mutation stats = %+v, want 3 inserts, 3 deletes, epoch 2", ms)
	}

	// Validation is all-or-nothing: every rejected body leaves the epoch
	// untouched.
	for _, tc := range []struct {
		url, body string
		status    int
		class     string
	}{
		{"/datasets/default/points:batch", `{not json`, http.StatusBadRequest, ClassBadRequest},
		{"/datasets/default/points:batch", `{}`, http.StatusBadRequest, ClassBadRequest},
		{"/datasets/default/points:batch", `{"insert":[[1,2,3]],"delete":[0]}`, http.StatusBadRequest, ClassBadRequest},
		{"/datasets/default/points:batch", `{"insert":[[1,2,3],[1,2]]}`, http.StatusBadRequest, ClassBadRequest},
		{"/datasets/default/points:batch", `{"delete":[0,0]}`, http.StatusNotFound, ClassNotFound},
		{"/datasets/default/points:batch", `{"delete":[99999]}`, http.StatusNotFound, ClassNotFound},
		{"/datasets/ghost/points:batch", `{"delete":[0]}`, http.StatusNotFound, ClassNotFound},
	} {
		var eb errorBody
		resp := postJSON(t, c, ts.URL+tc.url, tc.body, &eb)
		if resp.StatusCode != tc.status || eb.Class != tc.class {
			t.Errorf("POST %s %s: status=%d class=%q, want %d %s",
				tc.url, tc.body, resp.StatusCode, eb.Class, tc.status, tc.class)
		}
	}
	if got := ds.Epoch(); got != 2 {
		t.Errorf("rejected batches bumped the epoch to %d", got)
	}
}

// TestServerShardedQuery exercises ?shards= on /query: without ?remote=1
// the value changes nothing, so every answer is the unsharded one, and
// malformed values are 400s.
func TestServerShardedQuery(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 2000)
	c := ts.Client()

	var want QueryResponse
	if resp := get(t, c, ts.URL+"/query?k=4&t=32&seed=1", &want); resp.StatusCode != http.StatusOK {
		t.Fatalf("unsharded query: status %d", resp.StatusCode)
	}
	for _, shards := range []int{1, 2, 3, 4} {
		var got QueryResponse
		url := fmt.Sprintf("%s/query?k=4&t=32&seed=1&nocache=1&shards=%d", ts.URL, shards)
		if resp := get(t, c, url, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: status %d", shards, resp.StatusCode)
		}
		if fmt.Sprint(got.Indexes) != fmt.Sprint(want.Indexes) {
			t.Errorf("shards=%d: indexes %v, want %v", shards, got.Indexes, want.Indexes)
		}
	}
	for _, raw := range []string{"-1", "abc", "1.5"} {
		var eb errorBody
		resp := get(t, c, ts.URL+"/query?k=4&shards="+raw, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Class != ClassBadRequest {
			t.Errorf("shards=%s: status=%d class=%q, want 400 %s", raw, resp.StatusCode, eb.Class, ClassBadRequest)
		}
	}
}
