package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"skydiver/internal/budget"
	"skydiver/internal/data"
)

// TestPickOrderStoredOnlyWhenComplete: a MinHash or LSH selection over a
// cached fingerprint that a deadline or a budget cuts short stores no pick
// order, and a later complete read still stores its own, which serves the
// next read.
func TestPickOrderStoredOnlyWhenComplete(t *testing.T) {
	ds := data.Anticorrelated(4000, 4, 1)
	base := testInput(t, ds)
	m := len(base.Sky)
	const k = 8
	pipelines := []struct {
		name string
		run  func(context.Context, Input, Config) (*Result, error)
	}{{"MH", SkyDiverMHCtx}, {"LSH", SkyDiverLSHCtx}}
	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			in := base
			in.Cache = NewFingerprintCache(0)
			cfg := Config{K: k, SignatureSize: 64, Seed: 1}.withDefaults()
			// Build the fingerprint and its bit-vectors without selecting, and
			// find the pick-order slot the pipeline reads.
			fp, _, err := fingerprint(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			picks := fp.picks
			if p.name == "LSH" {
				params, err := cfg.LSHParams()
				if err != nil {
					t.Fatal(err)
				}
				if _, picks, err = fp.bitVectors(context.Background(), params, cfg.Seed+1); err != nil {
					t.Fatal(err)
				}
			}
			if picks == nil {
				t.Fatal("a cached fingerprint has no pick-order slot")
			}

			tracker := budget.NewTracker(budget.Budget{MaxEstimations: int64(m) + 2})
			spent, cancel := budget.WithContext(context.Background(), tracker)
			defer cancel()
			cut := []struct {
				name string
				ctx  context.Context
				want error
			}{
				// A deadline that expires at a fixed poll of the selection.
				{"deadline", &countdownTestCtx{Context: context.Background(), remaining: 3, err: context.DeadlineExceeded}, context.DeadlineExceeded},
				{"budget", spent, budget.ErrExceeded},
			}
			for _, c := range cut {
				res, err := p.run(c.ctx, in, cfg)
				if !errors.Is(err, c.want) || res == nil || !res.Partial || len(res.Selected) >= k {
					t.Fatalf("%s: err %v, result %+v; want a partial prefix and %v", c.name, err, res, c.want)
				}
				if got := picks.prefix(1); got != nil {
					t.Fatalf("%s: a cut-short selection stored %v", c.name, got)
				}
			}

			full, err := p.run(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.Stats.SelectionCached || !slices.Equal(picks.prefix(k), full.Selected) {
				t.Fatalf("full read: cached %v, stored %v, selected %v", full.Stats.SelectionCached, picks.prefix(k), full.Selected)
			}
			again, err := p.run(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Stats.SelectionCached || !slices.Equal(again.Selected, full.Selected) || again.ObjectiveValue != full.ObjectiveValue {
				t.Fatalf("repeat: cached %v, %v (%v); want %v (%v) from the stored order",
					again.Stats.SelectionCached, again.Selected, again.ObjectiveValue, full.Selected, full.ObjectiveValue)
			}
			if s := in.Cache.Stats(); s.SelectionHits != 1 {
				t.Errorf("SelectionHits = %d, want 1", s.SelectionHits)
			}
		})
	}
}
