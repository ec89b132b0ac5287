// Command skyblast is skyserved's load-and-chaos client: it replays mixed
// query waves (cached, cold, tightly budgeted + degradable, microscopic
// deadline) against a running server while an optional fault schedule flips
// storage fault injection on and off, then asserts the serving-tier
// invariants from the outside:
//
//   - every response is exactly one of 200 full / 200 partial-with-reason /
//     200 degraded-with-reason / 429 with Retry-After / 503 — never a torn
//     body, never an unclassified status;
//   - plain un-budgeted 200-full responses are bit-identical to the healthy
//     baseline, and every partial result is a valid prefix of it (the
//     anytime contract, observed over the wire);
//   - with -boom > 0, handler panics come back as clean 500s and the server
//     stays alive;
//   - the server's /stats response-class counters reconcile 1:1 with what
//     this client observed (shed count == 429s, and so on).
//
// Usage:
//
//	skyblast [-url http://127.0.0.1:8080] [-seconds 10] [-clients 16]
//	         [-faults 'rate=0.6,seed=11@2s;off@2s'] [-boom 3] [-reconcile]
//
// The -faults schedule is a semicolon-separated list of <policy>@<duration>
// phases cycled for the whole run; the policy "off" clears injection.
//
// Exit codes: 0 all invariants held, 1 violations observed, 2 setup failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// queryResponse mirrors internal/server.QueryResponse.
type queryResponse struct {
	Status   string       `json:"status"`
	Partial  bool         `json:"partial"`
	Degraded bool         `json:"degraded"`
	Reason   string       `json:"reason"`
	Indexes  []int        `json:"indexes"`
	Remote   *remoteStats `json:"remote"`
}

// remoteStats mirrors the shard-serving fields of skydiver.RemoteShardStats.
type remoteStats struct {
	Shards int `json:"shards"`
	Remote int `json:"remote"`
	Local  int `json:"local"`
}

// errorBody mirrors internal/server.errorBody.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"error_class"`
}

type harness struct {
	base           string
	dataset        string
	client         *http.Client
	k              int
	baseline       []int
	remoteBaseline []int    // set only with -remote; the index-free sharded answer
	tally          sync.Map // class string -> *atomic.Int64
	violations     atomic.Int64
}

func (h *harness) count(class string) {
	v, _ := h.tally.LoadOrStore(class, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

func (h *harness) violate(format string, args ...any) {
	h.violations.Add(1)
	fmt.Fprintf(os.Stderr, "VIOLATION: "+format+"\n", args...)
}

func main() {
	var (
		base      = flag.String("url", "http://127.0.0.1:8080", "skyserved base URL")
		dataset   = flag.String("dataset", "default", "dataset to query")
		seconds   = flag.Int("seconds", 10, "run duration")
		clients   = flag.Int("clients", 16, "concurrent clients")
		k         = flag.Int("k", 5, "result size")
		t         = flag.Int("t", 64, "signature size")
		seed      = flag.Int64("seed", 1, "query seed")
		faults    = flag.String("faults", "", "fault schedule: <policy>@<dur>[;<policy>@<dur>...], cycled; 'off' clears")
		boom      = flag.Int("boom", 0, "hit the chaos /boom endpoint this many times (server must survive)")
		remote    = flag.Bool("remote", false, "add a remote-shard wave (?remote=1); the server must run -shard-workers")
		wait      = flag.Duration("wait", 10*time.Second, "how long to wait for the server to become healthy")
		reconcile = flag.Bool("reconcile", true, "assert /stats response counters match client observations (needs a fresh server)")
	)
	flag.Parse()

	h := &harness{
		base:    strings.TrimRight(*base, "/"),
		dataset: *dataset,
		client:  &http.Client{Timeout: 30 * time.Second},
		k:       *k,
	}

	schedule, err := parseSchedule(*faults)
	if err != nil {
		fatal("%v", err)
	}
	if err := h.awaitHealthy(*wait); err != nil {
		fatal("%v", err)
	}

	// Healthy baseline before any chaos: the reference answer every plain
	// full response and every partial prefix is checked against.
	core := fmt.Sprintf("dataset=%s&k=%d&t=%d&seed=%d&index=1", url.QueryEscape(*dataset), *k, *t, *seed)
	status, body, hdr, err := h.get("/query?" + core)
	if err != nil || status != http.StatusOK {
		fatal("baseline query: status=%d err=%v body=%s", status, err, body)
	}
	var baseRes queryResponse
	if err := json.Unmarshal(body, &baseRes); err != nil || baseRes.Status != "full" {
		fatal("baseline query not a full result: %v %s", err, body)
	}
	_ = hdr
	h.baseline = baseRes.Indexes
	h.count("full")
	fmt.Printf("skyblast: baseline k=%d -> %v\n", *k, h.baseline)

	// The remote wave needs its own baseline: sharded signatures live in the
	// index-free universe, so the fleet's answer can legitimately differ from
	// the index=1 baseline above.
	if *remote {
		status, body, _, err := h.get("/query?" + core + "&remote=1&nocache=1")
		if err != nil || status != http.StatusOK {
			fatal("remote baseline query: status=%d err=%v body=%s", status, err, body)
		}
		var remRes queryResponse
		if err := json.Unmarshal(body, &remRes); err != nil || remRes.Status != "full" {
			fatal("remote baseline not a full result: %v %s", err, body)
		}
		if remRes.Remote == nil || remRes.Remote.Remote != remRes.Remote.Shards {
			fatal("remote baseline not served by the fleet: %s", body)
		}
		h.remoteBaseline = remRes.Indexes
		h.count("full")
		fmt.Printf("skyblast: remote baseline k=%d -> %v (%d shards)\n", *k, h.remoteBaseline, remRes.Remote.Shards)
	}

	// Panic chaos: each /boom must come back as a clean 500 and the server
	// must still answer /healthz afterwards.
	for i := 0; i < *boom; i++ {
		status, body, _, err := h.get("/boom")
		if err != nil {
			h.violate("/boom request failed: %v", err)
			continue
		}
		var eb errorBody
		if status != http.StatusInternalServerError || json.Unmarshal(body, &eb) != nil || eb.Class != "panic" {
			h.violate("/boom: status=%d body=%s, want clean 500 class=panic", status, body)
		}
		h.count("panic")
		if st, _, _, err := h.get("/healthz"); err != nil || st != http.StatusOK {
			h.violate("server unhealthy after panic %d: status=%d err=%v", i, st, err)
		}
	}

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// The fault scheduler flips injection phases while the waves run.
	var schedWG sync.WaitGroup
	if len(schedule) > 0 {
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			h.runSchedule(ctx, schedule)
		}()
	}

	classCount := 4
	if *remote {
		classCount = 5
	}
	var wg sync.WaitGroup
	var queries atomic.Int64
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				h.fire(core, (c+i)%classCount)
				queries.Add(1)
			}
		}(c)
	}
	wg.Wait()
	cancel()
	schedWG.Wait()

	// Quiesce: clear faults so reconciliation reads a stable server.
	if len(schedule) > 0 {
		h.postFaults("off")
	}

	fmt.Printf("skyblast: %d queries in %ds across %d clients\n", queries.Load(), *seconds, *clients)
	classes := map[string]int64{}
	h.tally.Range(func(k, v any) bool {
		classes[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	for class, n := range classes {
		fmt.Printf("skyblast:   %-12s %d\n", class, n)
	}

	if *reconcile {
		h.reconcile(classes)
	}

	if n := h.violations.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "skyblast: %d invariant violations\n", n)
		os.Exit(1)
	}
	fmt.Println("skyblast: all invariants held")
}

// fire sends one query of the given traffic class and validates the response
// against the taxonomy.
func (h *harness) fire(core string, class int) {
	u := "/query?" + core
	want := h.baseline
	switch class {
	case 0: // plain, cache-eligible: must equal the baseline when full
	case 1: // cold: redoes Phase 1 against the (possibly faulting) store
		u += "&nocache=1"
	case 2: // starved budget, shedding allowed: exercises the degradation ladder
		u += "&nocache=1&budget=pages=64&degraded=1"
	case 3: // microscopic deadline: exercises anytime partials
		u += "&nocache=1&timeout=5ms"
	case 4: // remote shards: the fleet (or its local-fallback rung) must stay exact
		u += "&remote=1&nocache=1"
		want = h.remoteBaseline
	}
	status, body, hdr, err := h.get(u)
	if err != nil {
		h.violate("query class %d: transport error: %v", class, err)
		return
	}
	switch status {
	case http.StatusOK:
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			h.violate("torn 200 body: %v: %s", err, body)
			return
		}
		h.count(qr.Status)
		switch qr.Status {
		case "full":
			if qr.Partial || qr.Degraded {
				h.violate("full response carries partial/degraded flags: %s", body)
			}
			if (class <= 1 || class == 4) && !equal(qr.Indexes, want) {
				h.violate("un-budgeted full response diverged from baseline: %v vs %v", qr.Indexes, want)
			}
			if class == 4 && qr.Remote == nil {
				h.violate("remote full response without remote stats: %s", body)
			}
		case "partial":
			if qr.Reason == "" {
				h.violate("partial response without a reason: %s", body)
			}
			if !qr.Degraded && !isPrefix(qr.Indexes, want) {
				h.violate("partial result is not a baseline prefix: %v vs %v", qr.Indexes, want)
			}
		case "degraded":
			if qr.Reason == "" {
				h.violate("degraded response without a reason: %s", body)
			}
			if len(qr.Indexes) > h.k {
				h.violate("degraded result larger than k: %v", qr.Indexes)
			}
		default:
			h.violate("unknown 200 status %q: %s", qr.Status, body)
		}
	case http.StatusTooManyRequests:
		if hdr.Get("Retry-After") == "" {
			h.violate("429 without Retry-After header")
		}
		h.countErrorClass(body, "shed")
	case http.StatusServiceUnavailable:
		h.countErrorClass(body, "unavailable")
	default:
		h.violate("query class %d: unclassified status %d: %s", class, status, body)
	}
}

// countErrorClass decodes an error body, checks its class, and tallies it.
func (h *harness) countErrorClass(body []byte, want string) {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		h.violate("torn error body: %v: %s", err, body)
		return
	}
	if eb.Class != want {
		h.violate("error class %q on a %s response: %s", eb.Class, want, body)
	}
	h.count(eb.Class)
}

// reconcile cross-checks the client-side tallies against /stats: the server
// must have counted exactly the responses this client observed.
func (h *harness) reconcile(classes map[string]int64) {
	status, body, _, err := h.get("/stats")
	if err != nil || status != http.StatusOK {
		h.violate("/stats: status=%d err=%v", status, err)
		return
	}
	var stats struct {
		Server struct {
			Responses map[string]int64 `json:"responses"`
			Panics    int64            `json:"panics"`
		} `json:"server"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		h.violate("/stats: %v", err)
		return
	}
	for class, n := range classes {
		if got := stats.Server.Responses[class]; got != n {
			h.violate("reconciliation: class %q: server counted %d, client observed %d", class, got, n)
		}
	}
	for class, got := range stats.Server.Responses {
		if _, ok := classes[class]; !ok && got != 0 {
			h.violate("reconciliation: server counted %d %q responses this client never saw", got, class)
		}
	}
	if classes["panic"] != stats.Server.Panics {
		h.violate("reconciliation: panics: server %d, client %d", stats.Server.Panics, classes["panic"])
	}
	fmt.Printf("skyblast: /stats reconciled %d response classes\n", len(stats.Server.Responses))
}

// phase is one step of the fault schedule.
type phase struct {
	policy string
	dur    time.Duration
}

func parseSchedule(s string) ([]phase, error) {
	if s == "" {
		return nil, nil
	}
	var out []phase
	for _, part := range strings.Split(s, ";") {
		policy, durStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("-faults: phase %q: want <policy>@<duration>", part)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("-faults: phase %q: bad duration: %v", part, err)
		}
		out = append(out, phase{policy: policy, dur: d})
	}
	return out, nil
}

// runSchedule cycles the fault phases until ctx expires.
func (h *harness) runSchedule(ctx context.Context, schedule []phase) {
	for i := 0; ; i++ {
		p := schedule[i%len(schedule)]
		h.postFaults(p.policy)
		select {
		case <-ctx.Done():
			return
		case <-time.After(p.dur):
		}
	}
}

// postFaults installs (or clears, policy "off") fault injection. Failures
// count as violations; their error class is tallied so /stats still
// reconciles.
func (h *harness) postFaults(policy string) {
	u := fmt.Sprintf("%s/datasets/%s/faults?policy=%s", h.base, url.PathEscape(h.dataset), url.QueryEscape(policy))
	resp, err := h.client.Post(u, "", nil)
	if err != nil {
		h.violate("installing faults %q: %v", policy, err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.violate("installing faults %q: status=%d body=%s (is the server running -chaos?)", policy, resp.StatusCode, body)
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Class != "" {
			h.count(eb.Class)
		}
	}
}

// awaitHealthy polls /healthz until the server answers 200.
func (h *harness) awaitHealthy(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		status, _, _, err := h.get("/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v (last: status=%d err=%v)", h.base, wait, status, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// get fetches base+path and returns status, body and headers.
func (h *harness) get(path string) (int, []byte, http.Header, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return 0, nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, resp.Header, err
	}
	return resp.StatusCode, body, resp.Header, nil
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isPrefix reports whether a is a (possibly empty) prefix of b — the anytime
// contract for partial results.
func isPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skyblast: "+format+"\n", args...)
	os.Exit(2)
}
