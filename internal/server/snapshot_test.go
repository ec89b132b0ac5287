package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// doJSON issues a bodyless request with an arbitrary method and decodes the
// JSON response into out when non-nil, mirroring the get helper.
func doJSON(t *testing.T, client *http.Client, method, url string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, body, err)
		}
	}
	return resp
}

// TestServerSnapshotWarmStart walks the full snapshot lifecycle over HTTP:
// open a file-backed dataset, persist its index, evict it, reopen it with
// ?snapshot=1, and verify via /stats that the first query ran a zero-decode
// warm start.
func TestServerSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newTestServer(t, Config{SnapshotDir: dir}, 500)
	c := ts.Client()

	openURL := ts.URL + "/datasets?name=snap&gen=ant&n=1500&d=3&seed=7&storage=file"
	if resp := doJSON(t, c, http.MethodPost, openURL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %s", resp.Status)
	}
	// A query before the snapshot so the index (and its decoded nodes) exist.
	if resp := get(t, c, ts.URL+"/query?dataset=snap&k=4&seed=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %s", resp.Status)
	}

	var snapInfo struct {
		Dataset  string `json:"dataset"`
		Snapshot string `json:"snapshot"`
		Bytes    int64  `json:"bytes"`
	}
	if resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/snap/snapshot", &snapInfo); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s", resp.Status)
	}
	if snapInfo.Bytes == 0 {
		t.Fatal("snapshot reported zero bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.snap")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	if resp := doJSON(t, c, http.MethodDelete, ts.URL+"/datasets/snap", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %s", resp.Status)
	}

	// Reopen warm: same generator parameters, index from the snapshot.
	if resp := doJSON(t, c, http.MethodPost, openURL+"&snapshot=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm open: %s", resp.Status)
	}
	if resp := get(t, c, ts.URL+"/query?dataset=snap&k=4&seed=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %s", resp.Status)
	}

	var stats struct {
		Datasets []struct {
			Name        string `json:"name"`
			DecodeCache struct {
				Hits    int64
				Decodes int64
			} `json:"decode_cache"`
		} `json:"datasets"`
	}
	get(t, c, ts.URL+"/stats", &stats)
	found := false
	for _, d := range stats.Datasets {
		if d.Name != "snap" {
			continue
		}
		found = true
		if d.DecodeCache.Decodes != 0 {
			t.Errorf("warm start decoded %d nodes, want 0", d.DecodeCache.Decodes)
		}
		if d.DecodeCache.Hits == 0 {
			t.Error("warm start served no nodes from the warm set")
		}
	}
	if !found {
		t.Error("dataset snap missing from /stats")
	}
}

// TestServerSnapshotRejections covers the failure surface: snapshots without
// a configured directory, path-walking dataset names, and warm opens with no
// snapshot on disk.
func TestServerSnapshotRejections(t *testing.T) {
	// No SnapshotDir: both sides of the feature are 400s.
	_, tsOff, _ := newTestServer(t, Config{}, 300)
	c := tsOff.Client()
	if resp := doJSON(t, c, http.MethodPut, tsOff.URL+"/datasets/default/snapshot", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("snapshot without dir: %s, want 400", resp.Status)
	}
	if resp := doJSON(t, c, http.MethodPost, tsOff.URL+"/datasets?name=w&gen=ind&n=200&d=3&snapshot=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("warm open without dir: %s, want 400", resp.Status)
	}

	dir := t.TempDir()
	_, ts, _ := newTestServer(t, Config{SnapshotDir: dir}, 300)
	c = ts.Client()
	// Names that could escape the snapshot directory must never reach the
	// filesystem: either the mux cleans/rejects the path (404/405) or the
	// handler's name validation does (400). A directory audit below proves
	// nothing was written either way.
	for _, name := range []string{"..", "a%2Fb", "a%5Cb", "."} {
		resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/"+name+"/snapshot", nil)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("name %q: snapshot accepted, want rejection", name)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(entries) != 0 {
		t.Errorf("hostile names left files behind: %v", entries)
	}
	// Unknown dataset → 404 from the registry.
	if resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/ghost/snapshot", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: %s, want 404", resp.Status)
	}
	// Warm open with no snapshot on disk → 400, and the dataset is NOT left
	// registered half-open.
	if resp := doJSON(t, c, http.MethodPost, ts.URL+"/datasets?name=cold&gen=ind&n=200&d=3&snapshot=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("warm open without snapshot: %s, want 400", resp.Status)
	}
	if resp := get(t, c, ts.URL+"/query?dataset=cold&k=2", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("failed warm open left dataset registered: %s", resp.Status)
	}
	// Bad storage parameter on open → 400.
	if resp := doJSON(t, c, http.MethodPost, ts.URL+"/datasets?name=bad&gen=ind&n=200&d=3&storage=tape", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("storage=tape: %s, want 400", resp.Status)
	}
}

// TestServerSnapshotRefusesDeletedRows: the snapshot records no deletions,
// so after a delete PUT /datasets/{name}/snapshot answers 400 and leaves no
// file (the temp file is removed); after inserts only it still succeeds.
func TestServerSnapshotRefusesDeletedRows(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newTestServer(t, Config{SnapshotDir: dir}, 300)
	c := ts.Client()
	if resp := doJSON(t, c, http.MethodPost, ts.URL+"/datasets/default/points?p=0.5,0.5,0.5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %s", resp.Status)
	}
	if resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/default/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot after an insert: %s, want 200", resp.Status)
	}
	if err := os.Remove(filepath.Join(dir, "default.snap")); err != nil {
		t.Fatal(err)
	}
	if resp := doJSON(t, c, http.MethodDelete, ts.URL+"/datasets/default/points/0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	var body struct {
		ErrorClass string `json:"error_class"`
	}
	if resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/default/snapshot", &body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("snapshot after a delete: %s, want 400", resp.Status)
	}
	if body.ErrorClass == "" {
		t.Error("refusal carries no error_class")
	}
	if entries, err := os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(entries) != 0 {
		t.Errorf("refused snapshot left files behind: %v", entries)
	}
}

// TestServerSnapshotMismatchIsBadRequest: a snapshot taken after an insert
// holds one row more than the dataset a warm open regenerates, so the
// reopen is refused as a bad request (400 bad_request) and leaves no
// dataset registered.
func TestServerSnapshotMismatchIsBadRequest(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newTestServer(t, Config{SnapshotDir: dir}, 300)
	c := ts.Client()
	openURL := ts.URL + "/datasets?name=m&gen=ant&n=300&d=3"
	if resp := doJSON(t, c, http.MethodPost, openURL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %s", resp.Status)
	}
	if resp := doJSON(t, c, http.MethodPost, ts.URL+"/datasets/m/points?p=0.5,0.5,0.5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %s", resp.Status)
	}
	if resp := doJSON(t, c, http.MethodPut, ts.URL+"/datasets/m/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s", resp.Status)
	}
	if resp := doJSON(t, c, http.MethodDelete, ts.URL+"/datasets/m", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %s", resp.Status)
	}
	var body struct {
		ErrorClass string `json:"error_class"`
	}
	if resp := doJSON(t, c, http.MethodPost, openURL+"&snapshot=1", &body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reopen with a 301-row snapshot: %s, want 400", resp.Status)
	}
	if body.ErrorClass != "bad_request" {
		t.Errorf("error_class = %q, want bad_request", body.ErrorClass)
	}
	if resp := get(t, c, ts.URL+"/query?dataset=m&k=2", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("refused reopen left the dataset registered: %s", resp.Status)
	}
}
