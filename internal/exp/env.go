// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Section 5). Each experiment is a named
// runner producing markdown tables with the same rows/series the paper
// reports; cmd/skybench drives them and bench_test.go wraps each in a
// testing.B benchmark.
//
// Absolute numbers are not expected to match the paper (different language,
// hardware and — via Env.Scale — cardinality); the shapes are: who wins, by
// roughly what factor, and where the crossovers fall. EXPERIMENTS.md records
// paper-versus-measured values per experiment.
package exp

import (
	"fmt"
	"time"

	"skydiver/internal/core"
	"skydiver/internal/data"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

// Env carries the execution parameters shared by all experiments, plus a
// cache of prepared datasets so sweeps reuse indexes and skylines.
type Env struct {
	// Scale multiplies every paper cardinality (default 0.02). Scale 1
	// reproduces the full 1M-7M/581K/364K sizes; expect hours, as the
	// paper's own runs took (its Figure 10 y-axes reach 10^6 seconds).
	Scale float64
	// Seed drives dataset generation and hashing.
	Seed int64
	// SGQueryCap aborts Simple-Greedy cells whose projected range-query
	// count (k·m) exceeds the cap; reported as DNF, as the paper itself
	// reports SG not completing on ANT 6D.
	SGQueryCap int
	// BFPairCap aborts Brute-Force cells whose pairwise-distance matrix
	// (m·(m-1)/2 range-query pairs) exceeds the cap; reported as DNF (the
	// paper's BF runs for k=5 "have not finished yet").
	BFPairCap int
	// Verbose emits progress lines through Logf.
	Logf func(format string, args ...any)

	cache map[string]*Prepared
	memo  map[string]any
}

// NewEnv returns an Env with the defaults used by cmd/skybench.
func NewEnv() *Env {
	return &Env{
		Scale:      0.02,
		Seed:       1,
		SGQueryCap: 150_000,
		BFPairCap:  500_000,
	}
}

func (e *Env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// scaled returns the scaled cardinality for a paper cardinality, at least 1000.
func (e *Env) scaled(paperN int) int {
	n := int(float64(paperN) * e.Scale)
	if n < 1000 {
		n = 1000
	}
	if n > paperN {
		n = paperN
	}
	return n
}

// Prepared bundles a generated dataset with its aggregate R*-tree and
// skyline, ready for pipeline runs.
type Prepared struct {
	Data *data.Dataset
	Tree *rtree.Tree
	Sky  []int
}

// Input converts to a core.Input.
func (p *Prepared) Input() core.Input {
	return core.Input{Data: p.Data, Sky: p.Sky, Tree: p.Tree}
}

// Dataset identifies one of the paper's workloads.
type datasetKind int

const (
	kindIND datasetKind = iota
	kindANT
	kindFC
	kindREC
)

func (k datasetKind) String() string {
	switch k {
	case kindIND:
		return "IND"
	case kindANT:
		return "ANT"
	case kindFC:
		return "FC"
	case kindREC:
		return "REC"
	default:
		return "?"
	}
}

// paper cardinalities (Table 4).
const (
	paperSyntheticN = 5_000_000 // default cardinality for IND/ANT
	paperFCN        = 581_012
	paperRECN       = 364_000
)

// generate builds the scaled dataset for a kind at the given cardinality
// and dimensionality.
func (e *Env) generate(kind datasetKind, paperN, dims int) (*data.Dataset, error) {
	return data.Generate(kind.String(), e.scaled(paperN), dims, e.Seed)
}

// Prepare generates (or fetches from cache) a dataset, its R*-tree and its
// skyline.
func (e *Env) Prepare(kind datasetKind, paperN, dims int) (*Prepared, error) {
	key := fmt.Sprintf("%v-%d-%d-%d-%f", kind, paperN, dims, e.Seed, e.Scale)
	if e.cache == nil {
		e.cache = make(map[string]*Prepared)
	}
	if p, ok := e.cache[key]; ok {
		return p, nil
	}
	start := time.Now()
	ds, err := e.generate(kind, paperN, dims)
	if err != nil {
		return nil, err
	}
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		return nil, err
	}
	sky, err := skyline.ComputeBBS(tr)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Data: ds, Tree: tr, Sky: sky}
	e.cache[key] = p
	e.logf("prepared %s: n=%d d=%d m=%d pages=%d (%v)",
		ds.Name(), ds.Len(), ds.Dims(), len(sky), tr.NumPages(), time.Since(start).Round(time.Millisecond))
	return p, nil
}

// coldCache reopens the tree's buffer pool at the paper's 20% setting so
// each measured run starts from a comparable cache state.
func (p *Prepared) coldCache() {
	p.Tree.Reopen(pager.DefaultCacheFraction)
}

// seconds renders a duration in seconds with adaptive precision, matching
// the paper's second-based axes.
func seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// dnf is the marker for cells whose projected cost exceeded a cap.
const dnf = "DNF"
