package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
	"skydiver/internal/pager"
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

// countdownTestCtx reports Canceled from Err after its budget of successful
// checks is spent. Safe for concurrent use by parallel workers.
type countdownTestCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownTestCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}
