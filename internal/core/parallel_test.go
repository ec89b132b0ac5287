package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/geom"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
	"skydiver/internal/rtree"
)

// TestSigGenIFParallelWorkerCountBounded: a worker count far above the
// row-chunk count (a request parameter of the serving daemon) starts at
// most one worker per chunk, each with its own m-entry score vector, and
// still yields the sequential fingerprint.
func TestSigGenIFParallelWorkerCountBounded(t *testing.T) {
	ds := data.Independent(2000, 3, 7)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(64, 1)
	want, err := SigGenIF(ds, in.Sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int32
	workerTestHook = func(int) { started.Add(1) }
	defer func() { workerTestHook = nil }()
	got, err := SigGenIFParallel(ds, in.Sky, fam, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for c := range in.Sky {
		if fmt.Sprint(got.Matrix.Column(c)) != fmt.Sprint(want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
			t.Fatalf("column %d differs from the sequential fingerprint", c)
		}
	}
	perPage := pager.NewSequentialCounter(8*ds.Dims() + 4).RecordsPerPage()
	if chunks := (ds.Len() + perPage - 1) / perPage; int(started.Load()) > chunks {
		t.Errorf("started %d workers for %d row chunks", started.Load(), chunks)
	}
}

func TestParallelWorkerPanicContained(t *testing.T) {
	ds := data.Independent(4000, 3, 2)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(32, 1)
	workerTestHook = func(w int) {
		if w == 1 {
			panic("boom")
		}
	}
	defer func() { workerTestHook = nil }()
	fp, err := SigGenIFParallel(ds, in.Sky, fam, 4)
	if err == nil {
		t.Fatal("expected error from panicking worker")
	}
	if fp != nil {
		t.Error("no fingerprint must be returned when a shard failed")
	}
	if !strings.Contains(err.Error(), "worker 1 panicked") {
		t.Errorf("error %q does not identify the panicking worker", err)
	}
}

// TestParallelShardErrorDeterministic: when several shards fail, the
// reported error is the first errored shard's by shard index, regardless of
// which worker hit its failure first in wall-clock time.
func TestParallelShardErrorDeterministic(t *testing.T) {
	ds := data.Independent(4000, 3, 2)
	in := testInput(t, ds)
	workerTestHook = func(w int) {
		if w >= 2 {
			panic("boom")
		}
	}
	defer func() { workerTestHook = nil }()
	for trial := 0; trial < 20; trial++ {
		fam, _ := minhash.NewFamily(32, 1)
		_, err := SigGenIFParallel(ds, in.Sky, fam, 4)
		if err == nil || !strings.Contains(err.Error(), "worker 2 panicked") {
			t.Fatalf("trial %d: error %v, want worker 2's (first by shard index)", trial, err)
		}
	}
}

// TestParallelRecoversAfterPanic: a panicking run leaves no corrupted shared
// state; the next run produces output identical to the sequential generator.
func TestParallelRecoversAfterPanic(t *testing.T) {
	ds := data.Independent(3000, 3, 6)
	in := testInput(t, ds)
	workerTestHook = func(w int) { panic("boom") }
	fam, _ := minhash.NewFamily(32, 4)
	if _, err := SigGenIFParallel(ds, in.Sky, fam, 4); err == nil {
		t.Fatal("expected error")
	}
	workerTestHook = nil
	fam2, _ := minhash.NewFamily(32, 4)
	par, err := SigGenIFParallel(ds, in.Sky, fam2, 4)
	if err != nil {
		t.Fatal(err)
	}
	fam3, _ := minhash.NewFamily(32, 4)
	seq, err := SigGenIF(ds, in.Sky, fam3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range in.Sky {
		a, b := par.Matrix.Column(j), seq.Matrix.Column(j)
		for s := range a {
			if a[s] != b[s] {
				t.Fatalf("column %d slot %d: parallel %d != sequential %d", j, s, a[s], b[s])
			}
		}
	}
}

func TestParallelCancelledBeforeStart(t *testing.T) {
	ds := data.Independent(3000, 3, 2)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(32, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fp, err := SigGenIFParallelCtx(ctx, ds, in.Sky, fam, 4)
	if err != context.Canceled || fp != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", fp, err)
	}
}

// TestParallelCancelledMidRun: a context that expires while the workers are
// scanning stops every shard within one page quantum and discards all
// partial matrices.
func TestParallelCancelledMidRun(t *testing.T) {
	ds := data.Independent(50000, 3, 2)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(32, 1)
	ctx := &countdownTestCtx{Context: context.Background(), remaining: 3}
	fp, err := SigGenIFParallelCtx(ctx, ds, in.Sky, fam, 4)
	if err != context.Canceled || fp != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", fp, err)
	}
}

// countdownTestCtx reports err (Canceled when nil) from Err after its
// budget of successful checks is spent. Safe for concurrent use by parallel
// workers.
type countdownTestCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
	err       error
}

func (c *countdownTestCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		if c.err != nil {
			return c.err
		}
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestParallelFoldMemoryCapped drives both parallel folds with 1<<16
// workers over a fingerprint large enough that one private matrix per data
// page (index-free) or per planner task (index-based) would pass
// minhash.MaxFingerprintBytes. The private matrices a fold starts — one per
// worker, plus the index-based planner's — must stay within the cap, more
// than one worker must still run, and the answers must equal the
// sequential passes'.
func TestParallelFoldMemoryCapped(t *testing.T) {
	// A 2-D staircase of m skyline points, each dominating one of the
	// extra rows: a 73 MiB fingerprint over a 15-page file with little to
	// fold. Three such fingerprints fit under the cap, fifteen do not.
	const m, size, extra = 2400, 8000, 600
	rows := make([][]float64, 0, m+extra)
	for i := range m {
		x := float64(i) / m
		rows = append(rows, []float64{x, 1 - x})
	}
	for i := range extra {
		x := float64(i*m/extra) / m
		rows = append(rows, []float64{x + 0.25/m, 1 - x + 0.25/m})
	}
	ds, err := data.FromRows("staircase", rows)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, ds)
	if len(in.Sky) != m {
		t.Fatalf("skyline has %d points, want %d", len(in.Sky), m)
	}
	fam, _ := minhash.NewFamily(size, 3)
	perPage := pager.NewSequentialCounter(8*ds.Dims() + 4).RecordsPerPage()
	pages := (ds.Len() + perPage - 1) / perPage
	matrix := int64(4 * size * m)
	if int64(pages)*matrix <= minhash.MaxFingerprintBytes {
		t.Fatalf("%d pages of %d-byte matrices fit the cap; the test needs more", pages, matrix)
	}

	var started atomic.Int32
	workerTestHook = func(int) { started.Add(1) }
	defer func() { workerTestHook = nil }()
	runs := []struct {
		name      string
		private   int32 // private matrices besides the workers'
		par, want func() (*Fingerprint, error)
	}{
		{"IF", 0,
			func() (*Fingerprint, error) { return SigGenIFParallel(ds, in.Sky, fam, 1<<16) },
			func() (*Fingerprint, error) { return SigGenIF(ds, in.Sky, fam) }},
		{"IB", 1,
			func() (*Fingerprint, error) {
				return SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, 1<<16)
			},
			func() (*Fingerprint, error) { return SigGenIB(in.Tree, ds, in.Sky, fam) }},
	}
	for _, r := range runs {
		started.Store(0)
		got, err := r.par()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		n := started.Load()
		if n < 2 || int64(n+r.private)*matrix > minhash.MaxFingerprintBytes {
			t.Errorf("%s: %d workers with %d-byte private matrices against a %d-byte cap",
				r.name, n, matrix, minhash.MaxFingerprintBytes)
		}
		// Drop the merged-away matrices before the reference pass allocates.
		runtime.GC()
		want, err := r.want()
		if err != nil {
			t.Fatal(err)
		}
		for c := range in.Sky {
			if !slices.Equal(got.Matrix.Column(c), want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
				t.Fatalf("%s: column %d differs from the sequential fingerprint", r.name, c)
			}
		}
		got, want = nil, nil
		runtime.GC()
	}
}

// TestMaxRangeFolds pins the remote shard clamp as a function of (t, m),
// without running a fold: the clamped count of folds and the merged
// fingerprint fit minhash.MaxFingerprintBytes together, at 4·t·(m+4) bytes
// each as FingerprintFits measures one, and one fold more would not; where
// not even two fit, the count is one. At t = 100 over IND-100K-4D's 216
// skyline points, a fold is 88 KB and 100,000 shards clamp to 3,049.
func TestMaxRangeFolds(t *testing.T) {
	edge := minhash.MaxFingerprintBytes / (4 * (100 + 4))
	for _, c := range []struct{ t, m int }{
		{100, 216}, {16, 3}, {1, 1}, {8000, 2400}, {100_000, 600}, {edge / 2, 100}, {edge/2 + 1, 100}, {edge, 100},
	} {
		n := MaxRangeFolds(c.t, c.m)
		fold := int64(4 * c.t * (c.m + 4))
		fit := minhash.MaxFingerprintBytes / fold // folds that fit the cap together
		switch {
		case fit < 2 && n != 1:
			t.Errorf("t=%d m=%d: %d folds, want 1 where two %d-byte folds pass the cap", c.t, c.m, n, fold)
		case fit >= 2 && int64(n+1) != fit:
			t.Errorf("t=%d m=%d: %d folds besides the merged one, want %d", c.t, c.m, n, fit-1)
		}
	}
	if n := MaxRangeFolds(100, 216); n != 3049 {
		t.Errorf("IND-100K-4D at t=100: %d folds, want 3049", n)
	}
}

// FuzzFoldPartitions is the oracle of the Phase-1 row kernel. The fuzz
// bytes decode to up to 256 rows of d ≤ 4 coordinates quantized to four
// levels (so ties and equal twins are common), each with a control byte
// carrying a tombstone bit and a cut point (at most four parts), plus
// t ≤ 128 — past 16 slots a row can take FoldRow's grouped fallback — and a
// hash seed. Every fold must match the reference model — the naive skyline,
// dominated sets found by a naive geom.Dominates scan and per-slot minima
// of the hash family — with every column's slot maximum (Matrix.ColMax)
// exact: SigGen-IF, the private folds of the parts (row ranges cut at the
// control bytes or, with pages set, FoldRange over the page ranges a
// remote query would shard into, empty ones included) min-merged with their
// scores summed, the range-parallel fold at 1, 2 and 3 workers and, without
// tombstones, the streaming pass. SigGen-IB at 1, 2 and 3 workers runs on
// the live rows; its row ids are traversal order, so its scores must match
// the reference and its matrices must match each other.
func FuzzFoldPartitions(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(7), int64(1), false, []byte{0, 1, 0x40, 1, 0, 0, 2, 2, 0x40, 2, 2, 0x80, 3, 3, 1, 1, 1, 0})
	f.Add(uint8(2), uint8(3), uint8(15), int64(5), true, []byte{0, 1, 2, 1, 1, 1, 1, 2, 2, 2, 0, 3, 3, 3, 3, 0x81, 0, 0, 3, 2, 1, 2, 3, 3})
	f.Add(uint8(3), uint8(1), uint8(3), int64(-2), true, bytes.Repeat([]byte{3, 1, 2, 0, 0x45, 2, 0, 0, 1, 0x82}, 60))
	f.Add(uint8(1), uint8(1), uint8(99), int64(4), false, bytes.Repeat([]byte{0, 3, 1, 2, 2, 1, 3, 0x40, 1, 1, 2, 3}, 40))
	f.Fuzz(func(t *testing.T, dims, parts, size uint8, seed int64, pages bool, raw []byte) {
		d, nParts, slots := 1+int(dims%4), 1+int(parts%4), 1+int(size%128)
		n := min(len(raw)/(d+1), 256)
		if n == 0 {
			return
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = float64(raw[i*(d+1)+j] % 4)
			}
		}
		ds, err := data.FromRows("fuzz", rows)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := func(i int) byte { return raw[i*(d+1)+d] }
		for i := range n {
			if ctrl(i)&0x80 != 0 {
				ds.MarkDeleted(i)
			}
		}
		sky := naiveSkyline(ds)
		if len(sky) == 0 {
			return
		}
		fam, _ := minhash.NewFamily(slots, seed)

		// The reference model.
		wantCol := make([][]uint32, len(sky))
		wantScore := make([]float64, len(sky))
		hv := make([][]uint32, n) // row r's hash values once it is dominated
		for c, s := range sky {
			wantCol[c] = make([]uint32, slots)
			for i := range wantCol[c] {
				wantCol[c][i] = math.MaxUint32
			}
			for r := range n {
				if ds.Deleted(r) || !geom.Dominates(ds.Point(s), ds.Point(r)) {
					continue
				}
				if hv[r] == nil {
					hv[r] = make([]uint32, slots)
					fam.HashAll(hv[r], uint64(r))
				}
				wantScore[c]++
				for i, v := range hv[r] {
					wantCol[c][i] = min(wantCol[c][i], v)
				}
			}
		}
		// checkBounds checks every column's slot maximum, the bound the
		// fold screens rows against.
		checkBounds := func(name string, fp *Fingerprint) {
			t.Helper()
			for c := range sky {
				if got, want := fp.Matrix.ColMax(c), slices.Max(fp.Matrix.Column(c)); got != want {
					t.Fatalf("%s: column %d slot maximum %d, slots say %d", name, c, got, want)
				}
			}
		}
		check := func(name string, fp *Fingerprint) {
			t.Helper()
			for c := range sky {
				if !slices.Equal(fp.Matrix.Column(c), wantCol[c]) || fp.DomScore[c] != wantScore[c] {
					t.Fatalf("%s: column %d = %v (score %v), reference %v (score %v)",
						name, c, fp.Matrix.Column(c), fp.DomScore[c], wantCol[c], wantScore[c])
				}
			}
			checkBounds(name, fp)
		}

		ifp, err := SigGenIF(ds, sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		check("SigGen-IF", ifp)

		// Private folds of the parts, min-merged.
		rf := newRowFold(ds, sky, fam)
		var pieces []func() (*Fingerprint, error)
		if pages {
			for i := range nParts {
				lo, hi := PageRange(ds, i, nParts)
				pieces = append(pieces, func() (*Fingerprint, error) { return FoldRange(context.Background(), ds, sky, fam, lo, hi) })
			}
		} else {
			cuts := []int{0}
			for i := 1; i < n && len(cuts) < nParts; i++ {
				if ctrl(i)&0x40 != 0 {
					cuts = append(cuts, i)
				}
			}
			cuts = append(cuts, n)
			for k := range len(cuts) - 1 {
				lo, hi := cuts[k], cuts[k+1]
				pieces = append(pieces, func() (*Fingerprint, error) { return rf.fold(context.Background(), lo, hi) })
			}
		}
		merged := &Fingerprint{Matrix: minhash.NewMatrix(slots, len(sky)), DomScore: make([]float64, len(sky))}
		for _, piece := range pieces {
			fp, err := piece()
			if err != nil {
				t.Fatal(err)
			}
			for c := range sky {
				merged.Matrix.UpdateColumn(c, fp.Matrix.Column(c))
				merged.DomScore[c] += fp.DomScore[c]
			}
		}
		check(fmt.Sprintf("%d merged parts", len(pieces)), merged)

		for w := 1; w <= 3; w++ {
			fp, err := foldAll(context.Background(), ds, sky, fam, w)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("range fold, %d workers", w), fp)
		}

		// SigGen-IB over the live rows, which keep their order, so the
		// skyline columns are the same points in the same order.
		var liveRows [][]float64
		liveID := make([]int, n)
		for r := range n {
			if !ds.Deleted(r) {
				liveID[r] = len(liveRows)
				liveRows = append(liveRows, rows[r])
			}
		}
		live, err := data.FromRows("fuzz-live", liveRows)
		if err != nil {
			t.Fatal(err)
		}
		liveSky := make([]int, len(sky))
		for c, s := range sky {
			liveSky[c] = liveID[s]
		}
		tr, err := rtree.BulkLoad(live)
		if err != nil {
			t.Fatal(err)
		}
		var ib1 *Fingerprint
		for w := 1; w <= 3; w++ {
			fp, err := SigGenIBParallelCtx(context.Background(), tr, live, liveSky, fam, w)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("SigGen-IB, %d workers", w)
			if !slices.Equal(fp.DomScore, wantScore) {
				t.Fatalf("%s: scores %v, reference %v", name, fp.DomScore, wantScore)
			}
			checkBounds(name, fp)
			if w == 1 {
				ib1 = fp
				continue
			}
			for c := range sky {
				if !slices.Equal(fp.Matrix.Column(c), ib1.Matrix.Column(c)) {
					t.Fatalf("%s: column %d = %v, 1 worker %v", name, c, fp.Matrix.Column(c), ib1.Matrix.Column(c))
				}
			}
		}

		if len(liveRows) == n {
			pts := make([][]float64, len(sky))
			for c, s := range sky {
				pts[c] = ds.Point(s)
			}
			fp, err := SigGenIFStreamCtx(context.Background(), ds.Source(), sky, pts, fam)
			if err != nil {
				t.Fatal(err)
			}
			check("streaming pass", fp)
		}
	})
}

// naiveSkyline is the reference skyline of the live rows: those no live row
// dominates, keeping only the lowest row id of equal twins.
func naiveSkyline(ds *data.Dataset) []int {
	var sky []int
	for i := 0; i < ds.Len(); i++ {
		if ds.Deleted(i) {
			continue
		}
		kept := true
		for k := 0; k < ds.Len() && kept; k++ {
			if ds.Deleted(k) {
				continue
			}
			kept = !geom.Dominates(ds.Point(k), ds.Point(i)) && !(k < i && geom.Equal(ds.Point(k), ds.Point(i)))
		}
		if kept {
			sky = append(sky, i)
		}
	}
	return sky
}
