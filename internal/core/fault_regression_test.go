package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"skydiver/internal/data"
	"skydiver/internal/pager"
	"skydiver/internal/retry"
	"skydiver/internal/rtree"
	"skydiver/internal/skyline"
)

// fault_regression_test.go pins two fault-path fixes in the Simple-Greedy
// pipeline: retry counts must survive into the reported I/O stats (the old
// hand-rolled stats delta dropped the Retries field), and an oracle failure
// during greedy selection must abort the run instead of being swallowed by
// the distance callback.

// faultQuery builds the golden single-query scenario (IND 2000×3 seed 7,
// cold 20% session warmed by BBS) with no injector installed yet.
func faultQuery(t *testing.T) (Input, *rtree.Tree) {
	t.Helper()
	ds := data.Independent(2000, 3, 7)
	tr, err := rtree.BulkLoad(ds)
	if err != nil {
		t.Fatal(err)
	}
	sess := tr.NewSession(pager.DefaultCacheFraction)
	sky, err := skyline.ComputeBBS(sess)
	if err != nil {
		t.Fatal(err)
	}
	return Input{Data: ds, Sky: sky, Tree: tr, Session: sess}, tr
}

// TestSimpleGreedyReportsRetries injects transient-only faults and checks
// that the retries spent recovering them appear in the pipeline's reported
// I/O — and that recovered faults change nothing else about the answer.
func TestSimpleGreedyReportsRetries(t *testing.T) {
	in, tr := faultQuery(t)
	fi, err := pager.NewFaultInjector(pager.FaultPolicy{Rate: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Store().SetFaultInjector(fi)
	defer tr.Store().SetFaultInjector(nil)
	// Keep the default retry budget but drop the backoff sleeps.
	in.Session.SetRetryPolicy(retry.Policy{MaxRetries: 4})

	res, err := SimpleGreedy(in, Config{K: 4, Seed: 7})
	if err != nil {
		t.Fatalf("transient-only faults must be recovered: %v", err)
	}
	if res.Stats.IO.Retries == 0 {
		t.Error("retries spent on transient faults missing from Stats.IO")
	}
	if fi.Stats().Transient == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	if got := fmt.Sprint(res.Selected); got != "[10 1 21 20]" {
		t.Errorf("recovered faults changed the selection: %s", got)
	}
}

// TestSimpleGreedySurfacesSelectionOracleFailure arranges a permanent fault
// that strikes after the domination-score phase, i.e. inside the greedy
// selection's distance oracle, and requires the run to abort with the
// oracle's error. Before the fix the distance callback swallowed the error
// and selection kept grinding on corrupted distances.
func TestSimpleGreedySurfacesSelectionOracleFailure(t *testing.T) {
	// Count the physical reads of the score phase and of a whole clean run,
	// using a zero-rate injector as a pure read counter.
	counter, err := pager.NewFaultInjector(pager.FaultPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	in, tr := faultQuery(t)
	tr.Store().SetFaultInjector(counter)
	oracle := NewExactOracle(in.Session, in.Data, in.Sky)
	if _, err := oracle.DomScores(); err != nil {
		t.Fatal(err)
	}
	scoreReads := counter.Stats().Reads
	in2, tr2 := faultQuery(t)
	tr2.Store().SetFaultInjector(counter)
	before := counter.Stats().Reads
	if _, err := SimpleGreedy(in2, Config{K: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	totalReads := counter.Stats().Reads - before
	if totalReads <= scoreReads {
		t.Fatalf("selection phase issues no physical reads (%d total, %d scores); scenario impossible", totalReads, scoreReads)
	}

	// Pick a seed whose first fault lands strictly inside the selection
	// phase by replaying the injector's rate lottery: one uniform draw per
	// screened read until the first hit.
	const rate = 0.002
	seed, firstFault := int64(0), int64(0)
	for s := int64(1); s < 10000; s++ {
		rng := rand.New(rand.NewSource(s))
		f := int64(1)
		for rng.Float64() >= rate {
			f++
		}
		if f > scoreReads+5 && f < totalReads-5 {
			seed, firstFault = s, f
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed places the first fault inside the selection phase")
	}

	in3, tr3 := faultQuery(t)
	fi, err := pager.NewFaultInjector(pager.FaultPolicy{Rate: rate, PermanentRate: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr3.Store().SetFaultInjector(fi)
	in3.Session.SetRetryPolicy(retry.Policy{MaxRetries: 4})

	res, err := SimpleGreedy(in3, Config{K: 4, Seed: 7})
	if err == nil {
		t.Fatalf("selection-phase oracle failure swallowed (first fault at read %d of %d)", firstFault, totalReads)
	}
	if !errors.Is(err, pager.ErrPermanentFault) {
		t.Errorf("error %v does not wrap ErrPermanentFault", err)
	}
	if res != nil {
		t.Errorf("got a result %v alongside an oracle failure; distances were corrupted", res.Selected)
	}
	if fi.Stats().Permanent == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
}
