// worker.go is the shard worker: a stateless-by-construction HTTP service
// that regenerates datasets from their specs and folds one shard, a page
// range of rows, per request against the skyline the coordinator sends. It
// reuses the serving tier's middleware stack (httpx panic recovery and
// drain gate, admission control, per-request deadlines) so a worker
// degrades the same way the front-end server does: sheds with 429 +
// Retry-After under overload, turns handler panics into clean 500s, and
// drains gracefully on shutdown.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skydiver/internal/admission"
	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/httpx"
	"skydiver/internal/minhash"
)

// WorkerConfig configures a Worker. The zero value is usable.
type WorkerConfig struct {
	// Admission, when non-zero, gates the shard endpoint behind an
	// admission limiter; shed requests get 429 + Retry-After.
	Admission admission.Policy
	// DefaultTimeout bounds shard work when the request carries no
	// ?timeout= (default 30s); MaxTimeout clamps explicit ones (default
	// 2 min).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the backoff hint on 429 responses (default 50ms).
	RetryAfter time.Duration
	// MaxDatasetN caps the cardinality a spec may ask this worker to
	// materialize (default 2,000,000) — a worker should not be OOM-able by a
	// single malformed request.
	MaxDatasetN int
	// Faults is the initial wire-fault policy (normally zero; chaos
	// harnesses install one at runtime via POST /faults).
	Faults WireFaultPolicy
	// Logf receives worker logs; nil discards them.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.MaxDatasetN == 0 {
		c.MaxDatasetN = 2_000_000
	}
	return c
}

// WorkerStats is the /stats payload.
type WorkerStats struct {
	Folds     int64 `json:"folds"`
	Sheds     int64 `json:"sheds"`
	Errors    int64 `json:"errors"`
	Panics    int64 `json:"panics"`
	Datasets  int   `json:"datasets"`
	Draining  bool  `json:"draining"`
	WireFault struct {
		Policy string `json:"policy,omitempty"`
		WireFaultStats
	} `json:"wire_faults"`
	Admission *admission.Stats `json:"admission,omitempty"`
}

// Worker serves shard work over HTTP. Create with NewWorker, mount Handler.
type Worker struct {
	cfg  WorkerConfig
	gate httpx.DrainGate
	lim  *admission.Limiter

	faults atomic.Pointer[wireInjector] // nil = disabled

	mu       sync.Mutex
	datasets map[string]*workerDataset

	folds, sheds, errors, panics atomic.Int64
}

// workerDataset single-flights the regeneration of one dataset replica.
type workerDataset struct {
	once sync.Once
	ds   *data.Dataset
	err  error
}

// NewWorker creates a worker. The admission policy, when set, is validated.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	w := &Worker{cfg: cfg, datasets: make(map[string]*workerDataset)}
	if cfg.Admission != (admission.Policy{}) {
		lim, err := admission.New(cfg.Admission)
		if err != nil {
			return nil, err
		}
		w.lim = lim
	}
	if cfg.Faults.Enabled() {
		w.faults.Store(newWireInjector(cfg.Faults))
	}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// SetFaults installs (or, with a zero policy, removes) the wire-fault
// injector. Also reachable remotely via POST /faults.
func (w *Worker) SetFaults(p WireFaultPolicy) {
	if p.Enabled() {
		w.faults.Store(newWireInjector(p))
	} else {
		w.faults.Store(nil)
	}
}

// BeginDrain sheds new shard requests; in-flight ones finish.
func (w *Worker) BeginDrain() { w.gate.BeginDrain() }

// Drain flips the gate and waits for in-flight shard work, returning the
// number still running when ctx expired (0 on a clean drain).
func (w *Worker) Drain(ctx context.Context) int {
	w.gate.BeginDrain()
	return w.gate.Wait(ctx)
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	var s WorkerStats
	s.Folds = w.folds.Load()
	s.Sheds = w.sheds.Load()
	s.Errors = w.errors.Load()
	s.Panics = w.panics.Load()
	s.Draining = w.gate.IsDraining()
	w.mu.Lock()
	s.Datasets = len(w.datasets)
	w.mu.Unlock()
	if in := w.faults.Load(); in != nil {
		s.WireFault.Policy = in.p.String()
		s.WireFault.WireFaultStats = in.stats()
	}
	if w.lim != nil {
		st := w.lim.Stats()
		s.Admission = &st
	}
	return s
}

// Handler returns the worker's HTTP handler: panic recovery outermost, then
// (for the shard endpoint only) wire-fault injection, drain gating and
// admission.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealth, w.handleHealth)
	mux.HandleFunc(PathStats, w.handleStats)
	mux.HandleFunc(PathFaults, w.handleFaults)
	mux.Handle(PathSigFold, w.shardEndpoint(w.handleSigFold))
	return httpx.Recover(mux, httpx.RecoverOptions{
		Logf:    w.cfg.Logf,
		OnPanic: func(any) { w.panics.Add(1) },
		Body:    func(p any) any { return errorReply{Error: fmt.Sprintf("internal error: %v", p)} },
	})
}

// shardEndpoint wraps a shard handler with the worker's robustness stack:
// wire faults (outermost, so injected drops and corruption affect real
// replies), the drain gate, and admission control.
func (w *Worker) shardEndpoint(h http.HandlerFunc) http.Handler {
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		if !w.gate.Enter() {
			w.unavailable(rw, "draining")
			return
		}
		defer w.gate.Exit()
		if w.lim != nil {
			if err := w.lim.Acquire(r.Context()); err != nil {
				w.sheds.Add(1)
				rw.Header().Set("Retry-After", retryAfterSeconds(w.cfg.RetryAfter))
				w.writeError(rw, http.StatusTooManyRequests, err)
				return
			}
			defer w.lim.Release()
		}
		h(rw, r)
	})
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if in := w.faults.Load(); in != nil {
			in.apply(inner, rw, r)
			return
		}
		inner.ServeHTTP(rw, r)
	})
}

func retryAfterSeconds(d time.Duration) string {
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

func (w *Worker) unavailable(rw http.ResponseWriter, why string) {
	rw.Header().Set("Retry-After", retryAfterSeconds(w.cfg.RetryAfter))
	w.writeError(rw, http.StatusServiceUnavailable, fmt.Errorf("worker %s", why))
}

func (w *Worker) writeError(rw http.ResponseWriter, status int, err error) {
	if status >= 500 {
		w.errors.Add(1)
	}
	httpx.WriteJSON(rw, status, errorReply{Error: err.Error()})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	if w.gate.IsDraining() {
		httpx.WriteJSON(rw, http.StatusServiceUnavailable, map[string]any{"ok": false, "reason": "draining"})
		return
	}
	httpx.WriteJSON(rw, http.StatusOK, map[string]any{"ok": true})
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(rw, http.StatusOK, w.Stats())
}

// maxRequestBytes caps every request body the worker decodes, as skyserved
// caps its own, so one oversized sky array cannot exhaust a worker's memory.
const maxRequestBytes = 32 << 20

// handleFaults installs a wire-fault policy at runtime:
// POST /faults {"policy": "drop=0.1,seed=7"}. An empty policy clears it.
func (w *Worker) handleFaults(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var body struct {
		Policy string `json:"policy"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes)).Decode(&body); err != nil {
		w.writeError(rw, http.StatusBadRequest, fmt.Errorf("bad faults body: %v", err))
		return
	}
	p, err := ParseWireFaultPolicy(body.Policy)
	if err != nil {
		w.writeError(rw, http.StatusBadRequest, err)
		return
	}
	w.SetFaults(p)
	w.logf("wire-fault policy set to %q", p.String())
	httpx.WriteJSON(rw, http.StatusOK, map[string]any{"policy": p.String()})
}

// decodeShardRequest parses and validates a shard request's addressing, and
// derives the handler context from ?timeout=.
func (w *Worker) decodeShardRequest(rw http.ResponseWriter, r *http.Request) (ShardRequest, context.Context, context.CancelFunc, bool) {
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		w.writeError(rw, http.StatusBadRequest, fmt.Errorf("bad shard request: %v", err))
		return req, nil, nil, false
	}
	if err := req.Validate(); err != nil {
		w.writeError(rw, http.StatusBadRequest, err)
		return req, nil, nil, false
	}
	if req.Spec.N > w.cfg.MaxDatasetN {
		w.writeError(rw, http.StatusBadRequest,
			fmt.Errorf("cluster: spec cardinality %d exceeds worker cap %d", req.Spec.N, w.cfg.MaxDatasetN))
		return req, nil, nil, false
	}
	if req.Epoch != 0 {
		// Workers only hold pristine regenerated datasets. A non-zero epoch
		// means the coordinator's copy has been mutated since generation, so
		// this worker's answer would be stale: refuse with 409 and let the
		// coordinator recompute locally.
		w.writeError(rw, http.StatusConflict,
			fmt.Errorf("cluster: epoch %d not served; workers hold only epoch 0", req.Epoch))
		return req, nil, nil, false
	}
	ctx, cancel, err := httpx.Timeout(r, w.cfg.DefaultTimeout, w.cfg.MaxTimeout)
	if err != nil {
		w.writeError(rw, http.StatusBadRequest, err)
		return req, nil, nil, false
	}
	return req, ctx, cancel, true
}

// dataset returns the replica named by spec, regenerating it on first use.
// Regeneration single-flights per spec.
func (w *Worker) dataset(spec DatasetSpec) (*data.Dataset, error) {
	key := spec.Key()
	w.mu.Lock()
	wd := w.datasets[key]
	if wd == nil {
		wd = &workerDataset{}
		w.datasets[key] = wd
	}
	w.mu.Unlock()
	wd.once.Do(func() {
		wd.ds, wd.err = spec.Build()
		if wd.err == nil {
			w.logf("dataset %s materialized (%d rows)", key, wd.ds.Len())
		}
	})
	return wd.ds, wd.err
}

// handleSigFold folds one shard, the Shard-th of the replica's Shards page
// ranges, against the request's skyline (core.FoldRange). A replica whose
// digest of those rows and the skyline rows differs from the request's is
// answered with 409 before any fold runs.
func (w *Worker) handleSigFold(rw http.ResponseWriter, r *http.Request) {
	req, ctx, cancel, ok := w.decodeShardRequest(rw, r)
	if !ok {
		return
	}
	defer cancel()
	if req.T < 1 {
		w.writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: non-positive signature size %d", req.T))
		return
	}
	if len(req.Sky) == 0 {
		w.writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: sigfold request carries no skyline"))
		return
	}
	// The fold indexes the dataset and its membership bitset with the ids.
	for j, s := range req.Sky {
		if s < 0 || s >= req.Spec.N || j > 0 && s <= req.Sky[j-1] {
			w.writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: skyline ids must be ascending, distinct and in [0, %d); entry %d is %d", req.Spec.N, j, s))
			return
		}
	}
	if !minhash.FingerprintFits(req.T, len(req.Sky)) {
		w.writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: signature size %d over %d skyline points exceeds the %d MiB fingerprint cap",
			req.T, len(req.Sky), minhash.MaxFingerprintBytes>>20))
		return
	}
	fam, err := minhash.NewFamily(req.T, req.HashSeed)
	if err != nil {
		w.writeError(rw, http.StatusBadRequest, err)
		return
	}
	ds, err := w.dataset(req.Spec)
	if err != nil {
		w.shardError(rw, ctx, err)
		return
	}
	lo, hi := core.PageRange(ds, req.Shard, req.Shards)
	if got := ReplicaDigest(ds, lo, hi, req.Sky); got != req.Digest {
		w.writeError(rw, http.StatusConflict,
			fmt.Errorf("cluster: replica digest %08x, coordinator's %08x: the replica holds other data", got, req.Digest))
		return
	}
	fp, err := core.FoldRange(ctx, ds, req.Sky, fam, lo, hi)
	if err != nil {
		w.shardError(rw, ctx, err)
		return
	}
	sig, crc := EncodeMatrix(fp.Matrix)
	w.folds.Add(1)
	httpx.WriteJSON(rw, http.StatusOK, FoldResponse{
		T:        req.T,
		Cols:     len(req.Sky),
		Sig:      sig,
		DomScore: fp.DomScore,
		Checksum: crc,
	})
}

// shardError maps a shard computation failure: client-caused cancellations
// become 503 (the coordinator may retry elsewhere), everything else 500.
func (w *Worker) shardError(rw http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		w.unavailable(rw, fmt.Sprintf("cancelled: %v", err))
		return
	}
	w.writeError(rw, http.StatusInternalServerError, err)
}
