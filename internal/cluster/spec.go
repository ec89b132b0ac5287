// Package cluster is the multi-node shard execution backend: a coordinator
// (Executor) cuts the rows into page ranges (core.PageRange) and sends each
// range's signature fold to a shard worker process (Worker, served by
// cmd/skyshardd) over HTTP/JSON, one RPC per shard, carrying the
// coordinator's skyline. It min-merges the replies with the same exact
// operators the in-process parallel fold uses — per-slot signature minima
// and domination-score sums — so remote results are bit-identical to
// in-process execution whenever every shard is served.
//
// Workers hold no coordinator state: each request names the dataset by its
// generator spec (distribution, cardinality, dimensionality, seed) and the
// worker regenerates it deterministically on first use. Generators emit
// min-preferred data, so the worker's copy equals the coordinator's
// canonical orientation value-for-value, and SigGen's global-row-id hashing
// makes the signature universes line up. Each request carries the
// coordinator's digest of the coordinates the fold reads; a replica that
// digests differently refuses the shard, which the coordinator then
// recomputes itself.
//
// The resilience envelope — per-shard deadlines, jittered retries, hedged
// duplicates, per-node circuit breakers, replica failover, local recompute,
// and (opt-in) degraded partial answers — lives entirely in the Executor;
// workers stay simple and stateless.
package cluster

import (
	"fmt"

	"skydiver/internal/data"
)

// DatasetSpec identifies a synthetic dataset by its generation parameters.
// Workers rebuild the dataset deterministically from the spec, so the
// coordinator never ships points over the wire. Only generated datasets can
// be named this way; ad-hoc datasets (NewDataset, LoadDataset) have no spec
// and cannot be executed remotely.
type DatasetSpec struct {
	// Gen is the generator name (data.Generate): IND, ANT, CORR, FC or REC,
	// the String forms of the library's Distribution enum.
	Gen string `json:"gen"`
	// N is the cardinality.
	N int `json:"n"`
	// Dims is the dimensionality.
	Dims int `json:"dims"`
	// Seed drives the generator.
	Seed int64 `json:"seed"`
}

// Validate checks the spec's ranges.
func (s DatasetSpec) Validate() error {
	if !data.IsGenerator(s.Gen) {
		return fmt.Errorf("cluster: unknown generator %q", s.Gen)
	}
	if s.N < 1 {
		return fmt.Errorf("cluster: non-positive cardinality %d", s.N)
	}
	if s.Dims < 1 {
		return fmt.Errorf("cluster: non-positive dimensionality %d", s.Dims)
	}
	if !data.GeneratedFits(s.N, s.Dims) {
		return fmt.Errorf("cluster: n·d = %d×%d exceeds the %d generated coordinates cap", s.N, s.Dims, data.MaxGeneratedValues)
	}
	return nil
}

// Key returns the spec's canonical cache key.
func (s DatasetSpec) Key() string {
	return fmt.Sprintf("%s/n=%d/d=%d/seed=%d", s.Gen, s.N, s.Dims, s.Seed)
}

// Build regenerates the dataset (data.Generate). The generators emit
// min-preferred values, the coordinator's canonical orientation, so the
// worker's rows equal the coordinator's bit for bit without a copy.
func (s DatasetSpec) Build() (*data.Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return data.Generate(s.Gen, s.N, s.Dims, s.Seed)
}
