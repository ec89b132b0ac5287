// handlers.go defines the Server: endpoint wiring, the /query pipeline
// (drain gate → tenant admission → registry checkout → deadline-propagated
// DiversifyContext → taxonomy-mapped response), dataset lifecycle endpoints,
// health/readiness probes, /stats, and graceful drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"skydiver"
	"skydiver/internal/admission"
	"skydiver/internal/data"
	"skydiver/internal/httpx"
)

// Config configures a Server. The zero value of every field is usable.
type Config struct {
	// Registry holds the served datasets. nil creates an empty registry.
	Registry *Registry
	// MaxTimeout clamps the per-request ?timeout= deadline (default 30s).
	MaxTimeout time.Duration
	// DefaultTimeout applies when a request carries no ?timeout= (0 = none
	// beyond MaxTimeout).
	DefaultTimeout time.Duration
	// TenantPolicy, when non-zero, layers an admission limiter per tenant
	// (the X-Tenant header or ?tenant=, default tenant "default") above each
	// dataset's own admission control. Tenant shedding happens before the
	// dataset is even looked up — overload costs the server nothing.
	TenantPolicy skydiver.AdmissionPolicy
	// DefaultBudget applies to queries that carry no ?budget= of their own
	// (zero = unlimited).
	DefaultBudget skydiver.Budget
	// RetryAfter is the backoff hint written on 429/503 (default 1s).
	RetryAfter time.Duration
	// Chaos enables the fault-injection admin endpoints (/boom and
	// POST /datasets/{name}/faults) used by skyblast and the smoke tests.
	Chaos bool
	// ShardWorkers, when non-empty, are the skyshardd worker base URLs
	// offered to queries that ask for remote shard execution (?remote=1).
	// Remote queries on a server with no fleet are rejected as invalid.
	ShardWorkers []string
	// SnapshotDir, when non-empty, enables warm-start index snapshots:
	// PUT /datasets/{name}/snapshot persists {name}.snap there, and
	// POST /datasets?snapshot=1 opens the new dataset from its snapshot —
	// no bulk load, no first-query decode storm. Empty disables both.
	SnapshotDir string
	// Logf receives diagnostics (panics, lifecycle events). nil = log.Printf.
	Logf func(format string, args ...any)
}

// Server is the HTTP serving tier. Build with New, expose Handler, stop with
// Drain.
type Server struct {
	cfg       Config
	reg       *Registry
	mux       *http.ServeMux
	handler   http.Handler
	gate      httpx.DrainGate
	tenants   *tenantTable
	responses *counters
	panics    atomic.Int64
	started   time.Time
}

// New validates cfg and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.TenantPolicy != (skydiver.AdmissionPolicy{}) {
		if err := cfg.TenantPolicy.Validate(); err != nil {
			return nil, fmt.Errorf("server: tenant policy: %w", err)
		}
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		mux:       http.NewServeMux(),
		tenants:   newTenantTable(admission.Policy(cfg.TenantPolicy)),
		responses: newCounters(),
		started:   time.Now(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /datasets", s.handleOpenDataset)
	s.mux.HandleFunc("DELETE /datasets/{name}", s.handleEvictDataset)
	s.mux.HandleFunc("POST /datasets/{name}/points", s.handleInsertPoint)
	s.mux.HandleFunc("POST /datasets/{name}/points:batch", s.handleBatchPoints)
	s.mux.HandleFunc("DELETE /datasets/{name}/points/{row}", s.handleDeletePoint)
	s.mux.HandleFunc("PUT /datasets/{name}/snapshot", s.handleSnapshot)
	if cfg.Chaos {
		s.mux.HandleFunc("POST /datasets/{name}/faults", s.handleFaults)
		s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
			panic("chaos: /boom requested")
		})
	}
	s.handler = s.recoverPanics(s.mux)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the server's dataset registry.
func (s *Server) Registry() *Registry { return s.reg }

// BeginDrain flips the server unready: /readyz starts failing and new
// queries are refused with 503 while in-flight ones run on. Idempotent.
func (s *Server) BeginDrain() { s.gate.BeginDrain() }

// Drain gracefully stops the server: BeginDrain, then wait until every
// in-flight query has finished (or ctx expires — the error then reports how
// many were abandoned), then evict and close every dataset.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.BeginDrain()
	if n := s.gate.Wait(ctx); n > 0 {
		return fmt.Errorf("server: drain deadline passed with %d queries in flight: %w", n, ctx.Err())
	}
	return s.reg.CloseAll(ctx)
}

// Draining reports whether drain has started.
func (s *Server) Draining() bool { return s.gate.IsDraining() }

// QueryResponse is the JSON shape of a 200 /query response. Status is the
// response class (full / partial / degraded); Reason carries the
// machine-readable cause for the two non-full classes.
type QueryResponse struct {
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	K         int         `json:"k"`
	Status    string      `json:"status"`
	Partial   bool        `json:"partial"`
	Degraded  bool        `json:"degraded"`
	Reason    string      `json:"reason,omitempty"`
	Indexes   []int       `json:"indexes"`
	Points    [][]float64 `json:"points,omitempty"`
	// Objective is omitted when it is not finite (a one-element selection has
	// an infinite min pairwise distance, and encoding/json refuses ±Inf —
	// previously that turned the whole k=1 response into an empty 200).
	Objective         *float64 `json:"objective,omitempty"`
	CPUSeconds        float64  `json:"cpu_seconds"`
	IOSeconds         float64  `json:"io_seconds"`
	PageFaults        int64    `json:"page_faults"`
	FingerprintCached bool     `json:"fingerprint_cached"`
	SelectionCached   bool     `json:"selection_cached"`
	EstimatesReused   int      `json:"estimates_reused"`
	// Remote reports how a ?remote=1 query's shards were served and what
	// the failover envelope spent; omitted for local queries.
	Remote *skydiver.RemoteShardStats `json:"remote,omitempty"`
}

// handleQuery serves GET /query. Parameters: dataset, k, algo (mh/lsh/sg/bf),
// t, index, seed, workers, nocache, budget, degraded, timeout, points,
// tenant (also the X-Tenant header).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()

	q := r.URL.Query()
	tenant := r.Header.Get("X-Tenant")
	if t := q.Get("tenant"); t != "" {
		tenant = t
	}
	if tenant == "" {
		tenant = "default"
	}

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()

	// Per-tenant admission: shed before touching the registry, so an abusive
	// tenant cannot even cost dataset lookups.
	if lim := s.tenants.limiter(tenant); lim != nil {
		if err := lim.Acquire(ctx); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w: queue wait exceeded request deadline", skydiver.ErrOverloaded)
			}
			s.writeError(w, err)
			return
		}
		defer lim.Release()
	}

	name := q.Get("dataset")
	if name == "" {
		name = "default"
	}
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()

	opts, err := parseQueryOptions(q, s.cfg.DefaultBudget)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if q.Get("remote") == "1" {
		if len(s.cfg.ShardWorkers) == 0 {
			s.writeError(w, fmt.Errorf("%w: remote=1 but the server has no shard workers configured", skydiver.ErrInvalidOptions))
			return
		}
		opts.Remote = &skydiver.RemoteOptions{Workers: s.cfg.ShardWorkers}
	}

	res, qerr := h.Dataset().DiversifyContext(ctx, opts)
	s.writeQueryResult(w, r, name, opts, res, qerr)
}

// writeQueryResult maps one DiversifyContext outcome onto the response
// taxonomy. Partial results from deadlines and budgets are 200s with the
// valid anytime prefix and a machine-readable reason, mirroring the CLI's
// exit-code 3; outright failures go through writeError.
func (s *Server) writeQueryResult(w http.ResponseWriter, r *http.Request, name string, opts skydiver.Options, res *skydiver.Result, qerr error) {
	wantPoints := r.URL.Query().Get("points") == "1"
	switch {
	case qerr == nil && res.Degraded:
		s.responses.inc(ClassDegraded)
		writeJSON(w, http.StatusOK, buildResponse(name, opts, res, ClassDegraded, res.DegradedReason, wantPoints))
	case qerr == nil && res.Partial:
		// Contract violation: partial results must come with an error.
		s.responses.inc(ClassInternal)
		writeJSON(w, http.StatusInternalServerError, errorBody{
			Error: "internal: partial result without error", Class: ClassInternal,
		})
	case qerr == nil:
		s.responses.inc(ClassFull)
		writeJSON(w, http.StatusOK, buildResponse(name, opts, res, ClassFull, "", wantPoints))
	case errors.Is(qerr, skydiver.ErrBudgetExceeded):
		s.writePartial(w, name, opts, res, "budget", wantPoints)
	case errors.Is(qerr, skydiver.ErrDeadlineExceeded), errors.Is(qerr, context.DeadlineExceeded):
		s.writePartial(w, name, opts, res, "deadline", wantPoints)
	case errors.Is(qerr, context.Canceled):
		// The client went away; nothing deliverable. Count it so /stats still
		// explains every admitted query.
		s.responses.inc(ClassCancelled)
	default:
		s.writeError(w, qerr)
	}
}

// writePartial serves the anytime prefix of a budget- or deadline-bounded
// query as a 200 with partial=true — possibly an empty prefix when the run
// died before its first greedy round.
func (s *Server) writePartial(w http.ResponseWriter, name string, opts skydiver.Options, res *skydiver.Result, reason string, wantPoints bool) {
	if res == nil {
		res = &skydiver.Result{Partial: true}
	}
	s.responses.inc(ClassPartial)
	writeJSON(w, http.StatusOK, buildResponse(name, opts, res, ClassPartial, reason, wantPoints))
}

// buildResponse assembles the 200 JSON body.
func buildResponse(name string, opts skydiver.Options, res *skydiver.Result, class, reason string, wantPoints bool) QueryResponse {
	out := QueryResponse{
		Dataset:           name,
		Algorithm:         opts.Algorithm.String(),
		K:                 opts.K,
		Status:            class,
		Partial:           res.Partial || class == ClassPartial,
		Degraded:          res.Degraded,
		Reason:            reason,
		Indexes:           res.Indexes,
		CPUSeconds:        res.CPUTime.Seconds(),
		IOSeconds:         res.IOTime.Seconds(),
		PageFaults:        res.PageFaults,
		FingerprintCached: res.FingerprintCached,
		SelectionCached:   res.SelectionCached,
		EstimatesReused:   res.EstimatesReused,
	}
	if v := res.ObjectiveValue; !math.IsInf(v, 0) && !math.IsNaN(v) {
		out.Objective = &v
	}
	if res.Degraded && reason == "" {
		out.Reason = res.DegradedReason
	}
	if wantPoints {
		out.Points = res.Points
	}
	out.Remote = res.Remote
	if out.Indexes == nil {
		out.Indexes = []int{}
	}
	return out
}

// parseQueryOptions decodes /query parameters into library Options. Every
// malformed value maps to ErrInvalidOptions (HTTP 400).
func parseQueryOptions(q map[string][]string, defaultBudget skydiver.Budget) (skydiver.Options, error) {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	bad := func(key, val, want string) error {
		return fmt.Errorf("%w: %s=%q, want %s", skydiver.ErrInvalidOptions, key, val, want)
	}
	opts := skydiver.Options{K: 5, Budget: defaultBudget}
	if raw := get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k < 1 {
			return opts, bad("k", raw, "a positive integer")
		}
		opts.K = k
	}
	if raw := get("algo"); raw != "" {
		algo, err := skydiver.ParseAlgorithm(raw)
		if err != nil {
			return opts, fmt.Errorf("%w: %v", skydiver.ErrInvalidOptions, err)
		}
		opts.Algorithm = algo
	}
	if raw := get("t"); raw != "" {
		t, err := strconv.Atoi(raw)
		if err != nil || t < 1 {
			return opts, bad("t", raw, "a positive integer")
		}
		opts.SignatureSize = t
	}
	if raw := get("seed"); raw != "" {
		seed, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return opts, bad("seed", raw, "an integer")
		}
		opts.Seed = seed
	}
	if raw := get("workers"); raw != "" {
		ws, err := strconv.Atoi(raw)
		if err != nil {
			return opts, bad("workers", raw, "an integer")
		}
		opts.Workers = ws
	}
	// shards partitions remote execution (?remote=1); without it the value
	// is validated and changes nothing.
	if raw := get("shards"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return opts, bad("shards", raw, "a non-negative integer")
		}
		opts.Shards = n
	}
	opts.UseIndex = get("index") == "1"
	opts.NoCache = get("nocache") == "1"
	opts.AllowDegraded = get("degraded") == "1"
	if raw := get("budget"); raw != "" {
		b, err := skydiver.ParseBudget(raw)
		if err != nil {
			return opts, fmt.Errorf("%w: %v", skydiver.ErrInvalidOptions, err)
		}
		opts.Budget = b
	}
	return opts, nil
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Seconds(),
	})
}

// handleReadyz reports readiness: 503 while draining and while any
// dataset's storage circuit breaker is open (the store is sick; a load
// balancer should prefer healthier replicas until probes close it).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.gate.IsDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	for _, info := range s.reg.List() {
		if h, err := s.reg.Acquire(info.Name); err == nil {
			bs, ok := h.Dataset().BreakerStats()
			h.Release()
			if ok && bs.State == skydiver.BreakerOpen {
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"ready": false, "reason": "circuit-open", "dataset": info.Name,
				})
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// datasetStats is the per-dataset block of /stats.
type datasetStats struct {
	DatasetInfo
	Admission        skydiver.AdmissionStats        `json:"admission"`
	Breaker          *skydiver.BreakerStats         `json:"breaker,omitempty"`
	BreakerState     string                         `json:"breaker_state,omitempty"`
	FingerprintCache skydiver.FingerprintCacheStats `json:"fingerprint_cache"`
	DecodeCache      skydiver.DecodeCacheStats      `json:"decode_cache"`
	Mutations        skydiver.MutationStats         `json:"mutations"`
	FaultsInjected   int64                          `json:"faults_injected"`
	FaultRetries     int64                          `json:"fault_retries"`
}

// handleStats surfaces every counter the serving tier keeps: response
// classes (reconcilable 1:1 against client-observed statuses), panics, and
// per-dataset admission / breaker / fingerprint-cache / decode-cache /
// fault-injection counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	datasets := make([]datasetStats, 0, s.reg.Len())
	for _, info := range s.reg.List() {
		st := datasetStats{DatasetInfo: info}
		if h, err := s.reg.Acquire(info.Name); err == nil {
			ds := h.Dataset()
			st.Admission = ds.AdmissionStats()
			if bs, ok := ds.BreakerStats(); ok {
				st.Breaker = &bs
				st.BreakerState = bs.State.String()
			}
			st.FingerprintCache = ds.FingerprintCacheStats()
			st.DecodeCache = ds.DecodeCacheStats()
			st.Mutations = ds.MutationStats()
			st.FaultsInjected, st.FaultRetries = ds.FaultStats()
			h.Release()
		}
		datasets = append(datasets, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"server": map[string]any{
			"draining":       s.gate.IsDraining(),
			"uptime_seconds": time.Since(s.started).Seconds(),
			"panics":         s.panics.Load(),
			"responses":      s.responses.snapshot(),
		},
		"tenants":  s.tenants.snapshot(),
		"datasets": datasets,
	})
}

// handleListDatasets serves GET /datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

// handleOpenDataset serves POST /datasets: generate and register a synthetic
// dataset (name, gen, n, d, seed) with optional per-dataset admission
// (maxinflight, maxqueue, queuewait) and breaker=1.
func (s *Server) handleOpenDataset(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		s.writeError(w, fmt.Errorf("%w: missing name", skydiver.ErrInvalidOptions))
		return
	}
	ds, err := buildDataset(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	warm := false
	if q.Get("snapshot") == "1" {
		if err := s.openFromSnapshot(ds, name); err != nil {
			ds.Close()
			s.writeError(w, err)
			return
		}
		warm = true
	}
	if err := s.reg.Open(name, ds); err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("dataset %q opened: n=%d d=%d warm=%v", name, ds.Len(), ds.Dims(), warm)
	writeJSON(w, http.StatusOK, DatasetInfo{Name: name, Points: ds.Len(), Dims: ds.Dims()})
}

// snapshotPath validates the dataset name as a safe file stem and returns
// its snapshot path under the configured directory. Names that could walk
// the filesystem (separators, "..", empty) are rejected — the name came off
// the URL.
func (s *Server) snapshotPath(name string) (string, error) {
	if s.cfg.SnapshotDir == "" {
		return "", fmt.Errorf("%w: server has no snapshot directory configured", skydiver.ErrInvalidOptions)
	}
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || name != filepath.Base(name) {
		return "", fmt.Errorf("%w: %q is not a valid snapshot name", skydiver.ErrInvalidOptions, name)
	}
	return filepath.Join(s.cfg.SnapshotDir, name+".snap"), nil
}

// openFromSnapshot loads the named snapshot into a freshly built dataset
// (no index yet), giving it a warm-start index instead of a bulk load.
func (s *Server) openFromSnapshot(ds *skydiver.Dataset, name string) error {
	path, err := s.snapshotPath(name)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: no snapshot for dataset %q", skydiver.ErrInvalidOptions, name)
		}
		return err
	}
	defer f.Close()
	return ds.LoadIndex(f)
}

// handleSnapshot serves PUT /datasets/{name}/snapshot: persist a warm-start
// index snapshot (tree pages plus the decoded-node warm set) to the
// configured snapshot directory, atomically via a rename. A later
// POST /datasets?snapshot=1 under the same name opens from it. A dataset
// with deleted rows is refused with 400 and no file is left behind: the
// snapshot records no deletions, and a fresh dataset could not reopen it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()
	name := r.PathValue("name")
	path, err := s.snapshotPath(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	tmp, err := os.CreateTemp(s.cfg.SnapshotDir, "."+name+".snap-*")
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := h.Dataset().SaveIndex(tmp); err != nil {
		tmp.Close()
		s.writeError(w, err)
		return
	}
	if err := tmp.Close(); err != nil {
		s.writeError(w, err)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		s.writeError(w, err)
		return
	}
	size := int64(0)
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	s.logf("dataset %q snapshot written: %s (%d bytes)", name, path, size)
	writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "snapshot": path, "bytes": size})
}

// buildDataset generates a dataset from request parameters and applies
// optional admission/breaker policies.
func buildDataset(q map[string][]string) (*skydiver.Dataset, error) {
	get := func(key, def string) string {
		if vs := q[key]; len(vs) > 0 && vs[0] != "" {
			return vs[0]
		}
		return def
	}
	dist, err := skydiver.ParseDistribution(get("gen", "ind"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", skydiver.ErrInvalidOptions, err)
	}
	n, err := strconv.Atoi(get("n", "10000"))
	if err != nil || n < 1 {
		return nil, fmt.Errorf("%w: n=%q, want a positive integer", skydiver.ErrInvalidOptions, get("n", ""))
	}
	d, err := strconv.Atoi(get("d", "4"))
	if err != nil || d < 2 {
		return nil, fmt.Errorf("%w: d=%q, want an integer >= 2", skydiver.ErrInvalidOptions, get("d", ""))
	}
	if !data.GeneratedFits(n, d) {
		return nil, fmt.Errorf("%w: n·d = %d×%d exceeds the %d generated coordinates cap",
			skydiver.ErrInvalidOptions, n, d, data.MaxGeneratedValues)
	}
	seed, err := strconv.ParseInt(get("seed", "1"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: seed=%q, want an integer", skydiver.ErrInvalidOptions, get("seed", ""))
	}
	ds, err := skydiver.Generate(dist, n, d, seed)
	if err != nil {
		return nil, err
	}
	switch st := strings.ToLower(get("storage", "sim")); st {
	case "sim":
	case "file":
		if err := ds.SetStorage(skydiver.StorageFile); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: storage=%q, want sim or file", skydiver.ErrInvalidOptions, st)
	}
	if raw := get("maxinflight", ""); raw != "" {
		mif, err := strconv.Atoi(raw)
		if err != nil || mif < 1 {
			return nil, fmt.Errorf("%w: maxinflight=%q", skydiver.ErrInvalidOptions, raw)
		}
		mq, _ := strconv.Atoi(get("maxqueue", "0"))
		qw, _ := time.ParseDuration(get("queuewait", "0s"))
		if err := ds.SetAdmissionPolicy(skydiver.AdmissionPolicy{
			MaxInFlight: mif, MaxQueue: mq, QueueWait: qw,
		}); err != nil {
			return nil, fmt.Errorf("%w: %v", skydiver.ErrInvalidOptions, err)
		}
	}
	if get("breaker", "") == "1" {
		if err := ds.SetBreakerPolicy(skydiver.DefaultBreakerPolicy()); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// handleEvictDataset serves DELETE /datasets/{name}: drain in-flight queries
// (bounded by ?drain=, default 10s) and close the dataset.
func (s *Server) handleEvictDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	drain := 10 * time.Second
	if raw := r.URL.Query().Get("drain"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			s.writeError(w, fmt.Errorf("%w: drain=%q, want a positive duration", skydiver.ErrInvalidOptions, raw))
			return
		}
		drain = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), drain)
	defer cancel()
	if err := s.reg.Evict(ctx, name); err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("dataset %q evicted", name)
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
}

// handleInsertPoint serves POST /datasets/{name}/points?p=v1,v2,...: insert
// one point (given in the dataset's original orientation) as a batch of one
// and return its row id plus the dataset's new epoch. The library maintains
// the skyline, the index and resident fingerprints incrementally, so the
// next /query is warm.
func (s *Server) handleInsertPoint(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()
	name := r.PathValue("name")
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	raw := r.URL.Query().Get("p")
	if raw == "" {
		s.writeError(w, fmt.Errorf("%w: missing p=v1,v2,... point parameter", skydiver.ErrInvalidOptions))
		return
	}
	parts := strings.Split(raw, ",")
	p := make([]float64, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			s.writeError(w, fmt.Errorf("%w: p[%d]=%q, want a float", skydiver.ErrInvalidOptions, i, part))
			return
		}
		p[i] = v
	}
	s.applyWrite(w, name, h.Dataset(), batchRequest{Insert: [][]float64{p}}, func(rows []int) (string, any) {
		return "row", rows[0]
	})
}

// batchRequest is the JSON body of POST /datasets/{name}/points:batch.
// Exactly one of the two fields must be present: Insert holds points in the
// dataset's original orientation, Delete holds row ids to tombstone.
type batchRequest struct {
	Insert [][]float64 `json:"insert,omitempty"`
	Delete []int       `json:"delete,omitempty"`
}

// handleBatchPoints serves POST /datasets/{name}/points:batch: apply a whole
// batch of inserts (returning the new row ids) or deletes under one
// write-lock acquisition, one epoch bump and one fingerprint migration; the
// single-point endpoints are batches of one. Validation is all-or-nothing:
// a malformed point or row id rejects the batch with 400/404 and no
// mutation.
func (s *Server) handleBatchPoints(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()
	name := r.PathValue("name")
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("%w: body: %v", skydiver.ErrInvalidOptions, err))
		return
	}
	if (len(req.Insert) == 0) == (len(req.Delete) == 0) {
		s.writeError(w, fmt.Errorf("%w: body must carry exactly one of insert or delete", skydiver.ErrInvalidOptions))
		return
	}
	s.applyWrite(w, name, h.Dataset(), req, func(rows []int) (string, any) {
		if len(req.Insert) > 0 {
			return "rows", rows
		}
		return "deleted", len(req.Delete)
	})
}

// applyWrite is the tail of every write endpoint: it applies req to ds as
// one batch (its inserts, or else its deletes) and answers with the
// dataset name, the new epoch and live count, and the one field report
// makes of the inserted rows.
func (s *Server) applyWrite(w http.ResponseWriter, name string, ds *skydiver.Dataset, req batchRequest, report func(rows []int) (string, any)) {
	var rows []int
	var err error
	if len(req.Insert) > 0 {
		rows, err = ds.InsertBatch(req.Insert)
	} else {
		err = ds.DeleteBatch(req.Delete)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	key, val := report(rows)
	ms := ds.MutationStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": name, key: val, "epoch": ms.Epoch, "live": ms.Live,
	})
}

// handleDeletePoint serves DELETE /datasets/{name}/points/{row}: tombstone
// the row as a batch of one (404 when it does not exist or was already
// deleted). Remaining row ids are unchanged.
func (s *Server) handleDeletePoint(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Enter() {
		s.writeError(w, fmt.Errorf("%w: server draining", ErrDatasetDraining))
		return
	}
	defer s.gate.Exit()
	name := r.PathValue("name")
	row, err := strconv.Atoi(r.PathValue("row"))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: row %q, want an integer", skydiver.ErrInvalidOptions, r.PathValue("row")))
		return
	}
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	s.applyWrite(w, name, h.Dataset(), batchRequest{Delete: []int{row}}, func([]int) (string, any) {
		return "deleted", row
	})
}

// handleFaults serves POST /datasets/{name}/faults (chaos builds only):
// install the fault policy given in ?policy= on the dataset's page store, or
// clear it when the policy is empty/absent.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	policy := skydiver.FaultPolicy{}
	if raw := r.URL.Query().Get("policy"); raw != "" && raw != "off" {
		policy, err = skydiver.ParseFaultPolicy(raw)
		if err != nil {
			s.writeError(w, fmt.Errorf("%w: %v", skydiver.ErrInvalidOptions, err))
			return
		}
	}
	if err := h.Dataset().InjectFaults(policy); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "rate": policy.Rate})
}
