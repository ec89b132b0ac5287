package skydiver

// remote.go is the public face of multi-node shard execution: Options.Remote
// routes a MinHash/LSH query's Phase 1 through a fleet of skyshardd workers
// (internal/cluster) instead of the in-process index-free fold. Each shard
// is a page range of rows, folded by a worker against the dataset's skyline
// in one RPC. The answer is bit-identical either way — workers regenerate
// the dataset from its generator spec, each request carries a digest of the
// rows the fold reads and each reply a checksum, and any shard the fleet
// cannot serve is recomputed locally. A remote answer is never degraded.

import (
	"context"
	"fmt"
	"strings"

	"skydiver/internal/cluster"
	"skydiver/internal/core"
	"skydiver/internal/minhash"
)

// RemoteOptions configures remote shard execution (Options.Remote).
type RemoteOptions struct {
	// Workers are the skyshardd base URLs. Required. Shard i is primarily
	// owned by Workers[i mod len]; the next worker is its failover replica
	// and hedge target.
	Workers []string
}

// RemoteShardStats reports how a remote query's shards were served and what
// the resilience envelope spent doing it (Result.Remote).
type RemoteShardStats struct {
	// Shards is the query's shard count after the memory clamp (see
	// Options.Shards); Remote were answered by the fleet, and Local
	// recomputed by the coordinator (a dead fleet, a mutated dataset or a
	// worker replica that holds other data). Remote + Local == Shards.
	Shards int `json:"shards"`
	Remote int `json:"remote"`
	Local  int `json:"local"`
	// Retries, Hedges, Failovers and FastFails count re-attempts, hedged
	// duplicates, replica failovers, and calls rejected by an open per-node
	// circuit breaker.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	Failovers int64 `json:"failovers"`
	FastFails int64 `json:"fast_fails"`
}

// remoteExecutor returns (building and caching as needed) the executor for
// the worker list, so per-node breaker state and latency windows persist
// across queries.
func (d *Dataset) remoteExecutor(ro *RemoteOptions) (*cluster.Executor, error) {
	key := strings.Join(ro.Workers, ",")
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrDatasetClosed
	}
	if ex := d.remotes[key]; ex != nil {
		return ex, nil
	}
	ex, err := cluster.New(cluster.Config{Workers: ro.Workers})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if d.remotes == nil {
		d.remotes = make(map[string]*cluster.Executor)
	}
	d.remotes[key] = ex
	return ex, nil
}

// diversifyRemote serves a MinHash/LSH query whose Phase 1 runs on the
// worker fleet. The caller holds qmu's read side.
func (d *Dataset) diversifyRemote(ctx context.Context, opts Options) (*Result, error) {
	ro := opts.Remote
	if opts.Budget.Enabled() {
		return nil, fmt.Errorf("%w: Options.Budget is not supported with Options.Remote", ErrInvalidOptions)
	}
	if len(ro.Workers) == 0 {
		return nil, fmt.Errorf("%w: Options.Remote.Workers is empty", ErrInvalidOptions)
	}
	if d.spec == nil {
		return nil, fmt.Errorf("%w: only datasets built by Generate are remotable", ErrInvalidOptions)
	}
	shards := opts.Shards
	if shards == 0 {
		shards = len(ro.Workers)
	}
	sky, sess, err := d.skylineSession(ctx)
	if err != nil {
		return nil, err
	}
	if err := d.validateQuery(opts, len(sky)); err != nil {
		return nil, err
	}
	ex, err := d.remoteExecutor(ro)
	if err != nil {
		return nil, err
	}
	cfg := coreConfig(opts)
	if cfg.SignatureSize == 0 {
		cfg.SignatureSize = 100 // the core default; the wire query must agree
	}
	q := cluster.Query{
		Spec:     *d.spec,
		Epoch:    d.epoch,
		Shards:   shards,
		T:        cfg.SignatureSize,
		HashSeed: opts.Seed,
	}
	var outcome *cluster.Outcome
	in := core.Input{Data: d.canon, Sky: sky, Tree: sess.Tree(), Session: sess, Cache: d.fpCache, Epoch: d.epoch}
	in.Builder = func(bctx context.Context, _ *minhash.Family) (*core.Fingerprint, error) {
		fp, out, err := ex.Fingerprint(bctx, q, d.canon, sky)
		outcome = &out
		return fp, err
	}
	res, err := runPipeline(ctx, opts.Algorithm, in, cfg)
	return finish(res, err, func(res *core.Result) *Result { return d.remoteResult(res, outcome) })
}

func (d *Dataset) remoteResult(res *core.Result, out *cluster.Outcome) *Result {
	pub := d.publicResult(res)
	if out != nil {
		pub.Remote = &RemoteShardStats{
			Shards:    out.Shards,
			Remote:    out.Remote,
			Local:     out.Local,
			Retries:   out.Retries,
			Hedges:    out.Hedges,
			Failovers: out.Failovers,
			FastFails: out.FastFails,
		}
	}
	return pub
}
