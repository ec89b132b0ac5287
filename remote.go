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
	// Shards is the query's shard count after the page and memory clamps
	// (see Options.Shards); Remote were answered by the fleet, and Local
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

// checkRemote checks a remote query's options before any skyline work: no
// budget, a non-empty fleet, and a dataset built by Generate, whose spec
// lets a worker regenerate its rows.
func (d *Dataset) checkRemote(opts Options) error {
	if opts.Budget.Enabled() {
		return fmt.Errorf("%w: Options.Budget is not supported with Options.Remote", ErrInvalidOptions)
	}
	if len(opts.Remote.Workers) == 0 {
		return fmt.Errorf("%w: Options.Remote.Workers is empty", ErrInvalidOptions)
	}
	if d.spec == nil {
		return fmt.Errorf("%w: only datasets built by Generate are remotable", ErrInvalidOptions)
	}
	return nil
}

// remoteBuilder returns a remote query's Phase-1 builder over the skyline
// sky, which folds the query's shards on the worker fleet under the
// pipeline's hash family, and a function that reports how the builder's
// shards were served (nil until it has run). The caller holds qmu's read
// side and has run checkRemote.
func (d *Dataset) remoteBuilder(opts Options, sky []int) (func(context.Context, *minhash.Family) (*core.Fingerprint, error), func() *RemoteShardStats, error) {
	ex, err := d.remoteExecutor(opts.Remote)
	if err != nil {
		return nil, nil, err
	}
	shards := opts.Shards
	if shards == 0 {
		shards = len(opts.Remote.Workers)
	}
	var served *RemoteShardStats
	build := func(ctx context.Context, fam *minhash.Family) (*core.Fingerprint, error) {
		q := cluster.Query{Spec: *d.spec, Epoch: d.epoch, Shards: shards, T: fam.Size(), HashSeed: opts.Seed}
		fp, out, err := ex.Fingerprint(ctx, q, d.canon, sky)
		served = (*RemoteShardStats)(&out)
		return fp, err
	}
	return build, func() *RemoteShardStats { return served }, nil
}
