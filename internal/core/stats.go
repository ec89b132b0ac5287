// Package core implements the SkyDiver framework itself (Section 4): the
// fingerprinting phase that turns each skyline point's dominated set into a
// MinHash signature — index-free (SigGen-IF, Figure 3) or over the aggregate
// R*-tree (SigGen-IB, Figure 4) — and the selection phase that greedily
// picks the k most diverse skyline points using signature distances
// (SkyDiver-MH), LSH bucket bit-vector Hamming distances (SkyDiver-LSH),
// exact Jaccard distances through R-tree range counting (Simple-Greedy), or
// exhaustive search (Brute-Force).
package core

import (
	"time"

	"skydiver/internal/pager"
)

// Stats aggregates the cost of one diversification run, mirroring the
// paper's measurement methodology (Section 5.1): CPU time is measured
// directly, and "total time" charges 8 ms per page fault on top.
type Stats struct {
	// Fingerprint is the CPU time of the signature-generation phase.
	Fingerprint time.Duration
	// FingerprintCached reports that Phase 1 was served from the dataset's
	// fingerprint cache — no signature pass ran and no Phase-1 I/O was
	// charged (IO then covers only the selection phase, if any).
	FingerprintCached bool
	// SelectionCached reports that the selection was served from the pick
	// order memoized with a cached fingerprint: no greedy round ran, and
	// Select covers only the lookup.
	SelectionCached bool
	// Select is the CPU time of the selection phase.
	Select time.Duration
	// IO accumulates page accesses (R-tree probes and/or sequential scan).
	IO pager.Stats
	// Model converts faults into simulated I/O time.
	Model pager.CostModel
	// MemoryBytes is the footprint of the signature structures (the
	// quantity of Figure 13(a)-(b)); zero for SG/BF which keep none.
	MemoryBytes int
}

// CPU returns the total CPU time of the run.
func (s Stats) CPU() time.Duration { return s.Fingerprint + s.Select }

// IOTime returns the simulated I/O time (faults × fault cost).
func (s Stats) IOTime() time.Duration { return s.Model.IOTime(s.IO) }

// Total returns CPU + simulated I/O time, the paper's "total time".
func (s Stats) Total() time.Duration { return s.CPU() + s.IOTime() }

// Result is the outcome of one diversification run.
type Result struct {
	// Selected holds positions within the skyline slice, in selection order.
	Selected []int
	// Partial reports that the run was cut short by context cancellation or
	// deadline expiry and Selected is the valid diverse prefix completed so
	// far (possibly empty) rather than the full k-point answer. Greedy
	// selection is anytime: every completed round extends the prefix, so the
	// partial answer is exactly what a shorter-k run would have produced.
	Partial bool
	// DataIndexes holds the corresponding dataset row indexes.
	DataIndexes []int
	// ObjectiveValue is the minimum pairwise distance of the selected set in
	// the algorithm's own distance space (estimated Jd for MH, Hamming for
	// LSH, exact Jd for SG/BF). Compare across algorithms with an exact
	// oracle instead (ExactDiversity).
	ObjectiveValue float64
	// Stats carries the run's cost accounting.
	Stats Stats
}
