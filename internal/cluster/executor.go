// executor.go is the coordinator side: it sends each shard's fold, one
// RPC per shard, to the worker fleet and min-merges the replies into one
// exact fingerprint. All the resilience lives here, as a ladder per shard:
//
//  1. retry the primary node — bounded attempts, full-jitter exponential
//     backoff, per-attempt deadline derived from the query context;
//  2. hedge — after the node's observed p90 latency a duplicate request
//     races on the next replica, first success wins;
//  3. fail over to the alternate replica with its own retry budget;
//  4. recompute the shard locally with the same range fold.
//
// So every shard is served, by the fleet or by the coordinator, and the
// answer is always exact. A worker that refuses the shard with 409 (a stale
// epoch, or a replica whose digest differs from the coordinator's) skips
// rungs 1–3: every replica regenerates the same data, so the shard goes
// straight to rung 4.
//
// Per-node three-state circuit breakers (retry.Breaker, the state machine
// that also guards the pager's reads) sit in front of every call, so a dead
// worker costs one fast-fail per shard instead of a full retry budget, and
// recovers via half-open probes once it returns.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/retry"
)

// Failure sentinels, classified with errors.Is.
var (
	// ErrNoWorkers marks an executor configured with an empty worker list.
	ErrNoWorkers = errors.New("cluster: no workers configured")
	// ErrChecksum marks a reply whose payload failed checksum or shape
	// validation — wire corruption, treated as retryable.
	ErrChecksum = errors.New("cluster: response checksum mismatch")
	// ErrSkew marks a worker refusing a shard its replica cannot serve: a
	// stale epoch or a replica digest that differs from the coordinator's.
	// Not retryable across nodes (every worker regenerates the same data).
	ErrSkew = errors.New("cluster: epoch skew")
)

// Config configures an Executor.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://127.0.0.1:7701").
	// Shard i is primarily owned by Workers[i mod len]; the next distinct
	// worker is its failover replica and hedge target.
	Workers []string
}

const (
	// callTimeout is the per-attempt deadline, intersected with the query
	// context.
	callTimeout = 10 * time.Second
	// maxDelay caps the full-jitter backoff between attempts.
	maxDelay = 250 * time.Millisecond
)

// tuning is the executor's retry, backoff, hedge and breaker settings. New
// uses defaultTuning; this package's tests build executors with their own
// through newExecutor, and each value there means what it says.
type tuning struct {
	// maxRetries bounds re-attempts per node after the first try.
	maxRetries int
	// baseDelay is the first step of the full-jitter backoff.
	baseDelay time.Duration
	// hedgeAfter, when positive, fixes the hedge delay. Zero derives it per
	// node from observed latency (p90 of a sliding sample window); hedging
	// stays off for a node until enough samples exist. Negative disables
	// hedging.
	hedgeAfter time.Duration
	// breaker configures the per-node circuit breakers.
	breaker retry.BreakerPolicy
}

func defaultTuning() tuning {
	return tuning{maxRetries: 2, baseDelay: 5 * time.Millisecond, breaker: retry.DefaultBreakerPolicy()}
}

// Query identifies one remote fingerprint computation.
type Query struct {
	// Spec names the dataset on the wire.
	Spec DatasetSpec
	// Epoch is the coordinator's mutation epoch. Non-zero epochs are not
	// remotable (workers regenerate pristine datasets); the executor then
	// serves every shard locally and reports it in the outcome.
	Epoch uint64
	// Shards is the number of page ranges (core.PageRange) the rows are
	// cut into, one RPC each.
	Shards int
	// T and HashSeed parameterize the MinHash family.
	T        int
	HashSeed int64
}

// Outcome reports how a query's shards were served and what the resilience
// envelope spent doing it.
type Outcome struct {
	// Shards is the total; Remote and Local count how each was served.
	// Remote+Local == Shards.
	Shards int `json:"shards"`
	Remote int `json:"remote"`
	Local  int `json:"local"`
	// Retries, Hedges, Failovers and FastFails count the envelope's work:
	// re-attempts after retryable failures, hedged duplicates launched,
	// shards moved to the alternate replica, and calls rejected by an open
	// breaker.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	Failovers int64 `json:"failovers"`
	FastFails int64 `json:"fast_fails"`
}

// NodeStats snapshots one worker's executor-side state.
type NodeStats struct {
	URL       string        `json:"url"`
	Breaker   string        `json:"breaker"`
	Trips     int64         `json:"trips"`
	FastFails int64         `json:"fast_fails"`
	Calls     int64         `json:"calls"`
	Faults    int64         `json:"faults"`
	P90       time.Duration `json:"p90_ns"`
}

// Stats snapshots the executor's counters.
type Stats struct {
	Queries   int64       `json:"queries"`
	Retries   int64       `json:"retries"`
	Hedges    int64       `json:"hedges"`
	Failovers int64       `json:"failovers"`
	FastFails int64       `json:"fast_fails"`
	Local     int64       `json:"local_shards"`
	Remote    int64       `json:"remote_shards"`
	Nodes     []NodeStats `json:"nodes"`
}

// node is one worker endpoint with its breaker and latency window.
type node struct {
	base string
	br   *retry.Breaker

	mu     sync.Mutex
	lat    []time.Duration // ring of recent successful-call latencies
	latIdx int

	calls, faults atomic.Int64
}

const latWindow = 64

// observe records a successful call's latency.
func (n *node) observe(d time.Duration) {
	n.mu.Lock()
	if len(n.lat) < latWindow {
		n.lat = append(n.lat, d)
	} else {
		n.lat[n.latIdx] = d
		n.latIdx = (n.latIdx + 1) % latWindow
	}
	n.mu.Unlock()
}

// p90 returns the 90th-percentile observed latency, or 0 with fewer than 8
// samples (not enough signal to hedge on).
func (n *node) p90() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.lat) < 8 {
		return 0
	}
	s := append([]time.Duration(nil), n.lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)*9)/10]
}

// Executor coordinates remote shard execution. Safe for concurrent use; keep
// one per worker fleet so breaker and latency state persist across queries.
type Executor struct {
	tuning
	client *http.Client
	nodes  []*node

	queries, retries, hedges, failovers, fastFails atomic.Int64
	localShards, remoteShards                      atomic.Int64
}

// New creates an executor for the fleet.
func New(cfg Config) (*Executor, error) { return newExecutor(cfg, defaultTuning()) }

func newExecutor(cfg Config, tu tuning) (*Executor, error) {
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	e := &Executor{tuning: tu, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	for _, w := range cfg.Workers {
		br, err := retry.NewBreaker(tu.breaker)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, &node{base: strings.TrimRight(w, "/"), br: br})
	}
	return e, nil
}

// Stats snapshots the executor's counters and per-node state.
func (e *Executor) Stats() Stats {
	s := Stats{
		Queries:   e.queries.Load(),
		Retries:   e.retries.Load(),
		Hedges:    e.hedges.Load(),
		Failovers: e.failovers.Load(),
		FastFails: e.fastFails.Load(),
		Local:     e.localShards.Load(),
		Remote:    e.remoteShards.Load(),
	}
	for _, n := range e.nodes {
		bs := n.br.Stats()
		s.Nodes = append(s.Nodes, NodeStats{
			URL:       n.base,
			Breaker:   bs.State.String(),
			Trips:     bs.Trips,
			FastFails: bs.FastFails,
			Calls:     n.calls.Load(),
			Faults:    n.faults.Load(),
			P90:       n.p90(),
		})
	}
	return s
}

// primary and replica pick a shard's owner and its failover target. With a
// single worker there is no distinct replica.
func (e *Executor) primary(shard int) *node { return e.nodes[shard%len(e.nodes)] }
func (e *Executor) replica(shard int) *node {
	if len(e.nodes) < 2 {
		return nil
	}
	return e.nodes[(shard+1)%len(e.nodes)]
}

// Fingerprint executes the query against the fleet: shard i is the i-th
// of q.Shards page ranges of ds, folded by a worker against sky, the
// coordinator's skyline, and the replies are min-merged. ds is the
// coordinator's canonical dataset: the source of each request's replica
// digest and of the ladder's local rung.
//
// The shard count is first clamped to the data's pages (core.DataPages), as
// a shard beyond them would fold an empty range, and to
// core.MaxRangeFolds(q.T, len(sky)), as the coordinator holds every shard's
// fold until the merge; the outcome reports the clamped count, and the
// page ranges and wire requests use it.
//
// The returned fingerprint is bit-identical to the unsharded SigGen-IF
// pass: same slots, same scores, and the same I/O, SigGen-IF's scan of the
// whole file. Every shard is served, by a worker or by the local rung, so
// a query fails only when its context ends or its parameters are invalid.
func (e *Executor) Fingerprint(ctx context.Context, q Query, ds *data.Dataset, sky []int) (*core.Fingerprint, Outcome, error) {
	e.queries.Add(1)
	fam, err := minhash.NewFamily(q.T, q.HashSeed)
	if err != nil {
		return nil, Outcome{Shards: q.Shards}, err
	}
	m := len(sky)
	q.Shards = min(q.Shards, core.DataPages(ds), core.MaxRangeFolds(q.T, m))
	out := Outcome{Shards: q.Shards}
	if q.Epoch != 0 {
		// Workers regenerate pristine datasets; a mutated coordinator copy
		// cannot be served remotely. Serve every shard locally.
		fp, err := core.SigGenIFParallelCtx(ctx, ds, sky, fam, -1)
		if err != nil {
			return nil, out, err
		}
		out.Local = out.Shards
		e.localShards.Add(int64(out.Shards))
		return fp, out, nil
	}

	type foldRes struct {
		fp    *core.Fingerprint
		local bool
		err   error
	}
	folds := make([]foldRes, q.Shards)
	var wg sync.WaitGroup
	for i := range q.Shards {
		lo, hi := core.PageRange(ds, i, q.Shards)
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := ShardRequest{
				Spec: q.Spec, Epoch: q.Epoch, Shards: q.Shards, Shard: i,
				T: q.T, HashSeed: q.HashSeed, Sky: sky,
				Digest: ReplicaDigest(ds, lo, hi, sky),
			}
			if fp, err := e.callShard(ctx, req, &out); err == nil {
				folds[i] = foldRes{fp: fp}
				return
			}
			fp, err := core.FoldRange(ctx, ds, sky, fam, lo, hi)
			folds[i] = foldRes{fp: fp, local: true, err: err}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, out, err
	}

	fp := &core.Fingerprint{Matrix: minhash.NewMatrix(q.T, m), DomScore: make([]float64, m),
		IO: core.SyntheticScanStats(ds.Dims(), ds.Len())}
	for _, fr := range folds {
		if fr.err != nil {
			return nil, out, fr.err
		}
		if fr.local {
			out.Local++
		} else {
			out.Remote++
		}
		for c := 0; c < m; c++ {
			fp.Matrix.UpdateColumn(c, fr.fp.Matrix.Column(c))
			fp.DomScore[c] += fr.fp.DomScore[c]
		}
	}
	e.remoteShards.Add(int64(out.Remote))
	e.localShards.Add(int64(out.Local))
	return fp, out, nil
}

// callShard walks rungs 1–3 of the ladder for one shard: retries with
// backoff on the primary (hedging attempt 0), then the same on the alternate
// replica. It returns the shard's validated fold on success; the caller
// applies rung 4. Outcome counters are updated atomically.
func (e *Executor) callShard(ctx context.Context, req ShardRequest, out *Outcome) (*core.Fingerprint, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	want := foldShape{t: req.T, cols: len(req.Sky)}
	prim, alt := e.primary(req.Shard), e.replica(req.Shard)
	fp, err := e.callNode(ctx, prim, alt, body, want, out)
	if err == nil || alt == nil || !retryableErr(err) {
		return fp, err
	}
	atomic.AddInt64(&out.Failovers, 1)
	e.failovers.Add(1)
	return e.callNode(ctx, alt, nil, body, want, out)
}

// foldShape is what a shard's reply must hold: a t-slot matrix of cols
// columns and one score per column.
type foldShape struct{ t, cols int }

// callNode runs the bounded retry loop against one node. hedge, when
// non-nil, is raced as a duplicate on the first attempt after the hedge
// delay.
func (e *Executor) callNode(ctx context.Context, n, hedge *node, body []byte, want foldShape, out *Outcome) (*core.Fingerprint, error) {
	pol := retry.Policy{
		MaxRetries: e.maxRetries,
		BaseDelay:  e.baseDelay,
		MaxDelay:   maxDelay,
		FullJitter: true,
	}
	var lastErr error
	for attempt := 0; attempt <= e.maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fp *core.Fingerprint
		if attempt == 0 && hedge != nil {
			fp, lastErr = e.doHedged(ctx, n, hedge, body, want, out)
		} else {
			fp, lastErr = e.doOnce(ctx, n, body, want, out)
		}
		if lastErr == nil || !retryableErr(lastErr) {
			return fp, lastErr
		}
		if attempt < e.maxRetries {
			atomic.AddInt64(&out.Retries, 1)
			e.retries.Add(1)
			if err := pol.Wait(ctx, attempt); err != nil {
				return nil, err
			}
		}
	}
	return nil, lastErr
}

// doOnce issues one breaker-screened attempt against one node.
func (e *Executor) doOnce(ctx context.Context, n *node, body []byte, want foldShape, out *Outcome) (*core.Fingerprint, error) {
	if err := n.br.Allow(); err != nil {
		atomic.AddInt64(&out.FastFails, 1)
		e.fastFails.Add(1)
		return nil, fmt.Errorf("%s: %w", n.base, err)
	}
	fp, err := e.roundTrip(ctx, n, body, want)
	n.br.Record(retryableErr(err))
	return fp, err
}

// doHedged races the primary attempt against a delayed duplicate on the
// hedge node: the first success wins and the loser is cancelled. With no
// usable hedge delay (hedging disabled, or not enough latency samples yet)
// it degenerates to a plain attempt.
func (e *Executor) doHedged(ctx context.Context, n, hedge *node, body []byte, want foldShape, out *Outcome) (*core.Fingerprint, error) {
	delay := e.hedgeAfter
	if delay == 0 {
		delay = n.p90()
	}
	if delay <= 0 {
		return e.doOnce(ctx, n, body, want, out)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		fp  *core.Fingerprint
		err error
	}
	results := make(chan res, 2)
	launch := func(target *node) {
		fp, err := e.doOnce(hctx, target, body, want, out)
		results <- res{fp: fp, err: err}
	}
	go launch(n)
	timer := retry.NewTimer(delay)
	defer timer.Stop()
	launched := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				atomic.AddInt64(&out.Hedges, 1)
				e.hedges.Add(1)
				go launch(hedge)
			}
		case r := <-results:
			if r.err == nil {
				cancel()
				return r.fp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			launched--
			if launched == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// roundTrip performs one HTTP exchange with the per-attempt deadline and
// full reply validation: status mapping, JSON decode, then the fold's
// dimensions, matrix checksum and score count. A reply that fails any check
// is wire corruption, a retryable ErrChecksum.
func (e *Executor) roundTrip(ctx context.Context, n *node, body []byte, want foldShape) (*core.Fingerprint, error) {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, n.base+PathSigFold, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	n.calls.Add(1)
	start := time.Now()
	hresp, err := e.client.Do(hreq)
	if err != nil {
		n.faults.Add(1)
		// Transport-level failure: connection refused, reset, injected drop.
		return nil, fmt.Errorf("%s%s: %w", n.base, PathSigFold, err)
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		n.faults.Add(1)
		return nil, fmt.Errorf("%s%s: reading reply: %w", n.base, PathSigFold, err)
	}
	switch {
	case hresp.StatusCode == http.StatusOK:
	case hresp.StatusCode == http.StatusConflict:
		return nil, fmt.Errorf("%s%s: %w: %s", n.base, PathSigFold, ErrSkew, strings.TrimSpace(string(raw)))
	case hresp.StatusCode == http.StatusTooManyRequests,
		hresp.StatusCode >= http.StatusInternalServerError:
		n.faults.Add(1)
		return nil, &statusErr{status: hresp.StatusCode, msg: fmt.Sprintf("%s%s: %s", n.base, PathSigFold, strings.TrimSpace(string(raw)))}
	default:
		// 4xx: the request itself is wrong; retrying cannot help.
		return nil, fmt.Errorf("%s%s: status %d: %s", n.base, PathSigFold, hresp.StatusCode, strings.TrimSpace(string(raw)))
	}
	fp, err := decodeFold(raw, want)
	if err != nil {
		n.faults.Add(1)
		return nil, fmt.Errorf("%s%s: %w", n.base, PathSigFold, err)
	}
	n.observe(time.Since(start))
	return fp, nil
}

// decodeFold parses and validates one FoldResponse body against the shape
// the request asked for. Every failure wraps ErrChecksum.
func decodeFold(raw []byte, want foldShape) (*core.Fingerprint, error) {
	var resp FoldResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChecksum, err)
	}
	if resp.T != want.t || resp.Cols != want.cols || len(resp.DomScore) != want.cols {
		return nil, fmt.Errorf("%w: reply of %d×%d slots and %d scores, want %d×%d",
			ErrChecksum, resp.T, resp.Cols, len(resp.DomScore), want.t, want.cols)
	}
	m, err := DecodeMatrix(resp.Sig, want.t, want.cols, resp.Checksum)
	if err != nil {
		return nil, err
	}
	return &core.Fingerprint{Matrix: m, DomScore: resp.DomScore}, nil
}

// statusErr is a retryable HTTP-status failure (429, 5xx).
type statusErr struct {
	status int
	msg    string
}

func (e *statusErr) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.msg) }

// retryableErr classifies a call failure: transport errors, 429/5xx,
// checksum mismatches and breaker fast-fails (the alternate replica may be
// healthy) are retryable; epoch skew, other 4xx and context expiry are not.
func retryableErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrSkew) {
		return false
	}
	// Note: context.DeadlineExceeded is NOT screened out here — a wrapped
	// deadline usually means the per-attempt callTimeout fired, which a
	// retry (or the replica) may well beat. Outer-context expiry is caught
	// by the explicit ctx.Err() checks at the top of every retry loop.
	var se *statusErr
	if errors.As(err, &se) {
		return true
	}
	if errors.Is(err, ErrChecksum) || errors.Is(err, retry.ErrCircuitOpen) {
		return true
	}
	// Anything carrying a *url.Error is a transport failure (refused,
	// reset, injected drop, per-attempt deadline on the wire).
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}
