package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/minhash"
)

// TestSigGenIBParallelMatchesSequential is the golden pin for the
// subtree-sharded traversal: signatures, domination scores and total page
// reads must be bit-for-bit / count-for-count identical to the sequential
// SigGen-IB for every worker count, across tree shapes deep enough to give
// the planner real subtrees to shard.
func TestSigGenIBParallelMatchesSequential(t *testing.T) {
	for _, ds := range []*data.Dataset{
		data.Independent(6000, 3, 5),
		data.Anticorrelated(5000, 3, 7),
		data.Correlated(8000, 4, 9),
	} {
		in := testInput(t, ds)
		fam, err := minhash.NewFamily(64, 11)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SigGenIB(in.Tree, ds, in.Sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8, 16} {
			got, err := SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got.Matrix.Cols() != want.Matrix.Cols() || got.Matrix.T() != want.Matrix.T() {
				t.Fatalf("workers=%d: matrix shape %dx%d, want %dx%d",
					workers, got.Matrix.T(), got.Matrix.Cols(), want.Matrix.T(), want.Matrix.Cols())
			}
			for c := 0; c < want.Matrix.Cols(); c++ {
				wc, gc := want.Matrix.Column(c), got.Matrix.Column(c)
				for s := range wc {
					if wc[s] != gc[s] {
						t.Fatalf("workers=%d: column %d slot %d = %d, want %d", workers, c, s, gc[s], wc[s])
					}
				}
				if got.DomScore[c] != want.DomScore[c] {
					t.Fatalf("workers=%d: DomScore[%d] = %v, want %v", workers, c, got.DomScore[c], want.DomScore[c])
				}
			}
			// The sharded traversal visits exactly the node set the
			// sequential one does, each node once; only the hit/fault split
			// may differ (shared-LRU interleave is schedule-dependent).
			if got.IO.Reads != want.IO.Reads {
				t.Errorf("workers=%d: %d page reads, want %d", workers, got.IO.Reads, want.IO.Reads)
			}
		}
	}
}

// TestSigGenIBParallelWorkerCountBounded: a worker count far above the
// planner's task count (a request parameter of the serving daemon) still
// yields the sequential fingerprint, and only workers with a task are
// started, so the allocation follows the task count, not the worker count.
// Uncapped, each of the 1<<16 workers would allocate its own t×m matrix.
func TestSigGenIBParallelWorkerCountBounded(t *testing.T) {
	ds := data.Independent(2000, 3, 7)
	in := testInput(t, ds)
	fam, err := minhash.NewFamily(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SigGenIB(in.Tree, ds, in.Sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, workers)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < want.Matrix.Cols(); c++ {
		if fmt.Sprint(got.Matrix.Column(c)) != fmt.Sprint(want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
			t.Fatalf("column %d differs from the sequential fingerprint", c)
		}
	}
	// The tree has a few dozen nodes, so at most that many tasks; allow a
	// generous 256 matrices' worth against the 65536 an uncapped run takes.
	perWorker := uint64(4 * want.Matrix.T() * want.Matrix.Cols())
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 256*perWorker+(1<<20) {
		t.Errorf("allocated %d bytes for %d workers; the task count, not the worker count, should bound it (%d bytes per worker matrix)",
			grown, workers, perWorker)
	}
}

// TestSigGenIBParallelWorkers1 pins the delegation path: one worker is the
// sequential code, fault accounting included.
func TestSigGenIBParallelWorkers1(t *testing.T) {
	ds := data.Independent(3000, 3, 2)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(32, 5)
	want, err := SigGenIB(in.Tree, ds, in.Sky, fam)
	if err != nil {
		t.Fatal(err)
	}
	in.Tree.Reopen(0.2)
	got, err := SigGenIBParallelCtx(context.Background(), in.Tree, ds, in.Sky, fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.IO != want.IO {
		t.Errorf("IO %+v, want %+v", got.IO, want.IO)
	}
}

// TestSigGenIBParallelCancel: a pre-cancelled context aborts before any
// traversal and discards everything.
func TestSigGenIBParallelCancel(t *testing.T) {
	ds := data.Independent(3000, 3, 3)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(32, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SigGenIBParallelCtx(ctx, in.Tree, ds, in.Sky, fam, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSigGenIBParallelErrors mirrors the sequential validation.
func TestSigGenIBParallelErrors(t *testing.T) {
	ds := data.Independent(200, 2, 1)
	in := testInput(t, ds)
	fam, _ := minhash.NewFamily(16, 1)
	if _, err := SigGenIBParallelCtx(context.Background(), in.Tree, ds, nil, fam, 4); err == nil {
		t.Error("empty skyline accepted")
	}
	other := data.Independent(200, 3, 1)
	if _, err := SigGenIBParallelCtx(context.Background(), in.Tree, other, []int{0}, fam, 4); err == nil {
		t.Error("dims mismatch accepted")
	}
}
