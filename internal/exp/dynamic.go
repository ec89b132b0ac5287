package exp

import (
	"fmt"
	"math/rand"
	"time"

	"skydiver/internal/dynamic"
)

func init() {
	Registry = append(Registry, Runner{
		ID:          "dynamic",
		Description: "Extension: continuous diversification — window refresh cost vs window size",
		Run:         RunDynamic,
	})
}

// dynamicTrials is the number of refreshes timed per window size: the
// first, after the fill, rebuilds the window wholesale; each later one
// follows one arrival and advances the maintained state by that step.
const dynamicTrials = 5

// RunDynamic measures the sliding-window monitor (the continuous setting of
// Drosou & Pitoura the paper builds on): the cost of a refresh — window
// skyline plus index-free fingerprint plus selection — as the window grows.
// The first refresh after the fill is a wholesale rebuild; every later one
// follows a single arrival and only advances the maintained state, so the
// two are reported apart: the rebuild (one sample) and the mean ± sd of the
// one-arrival steps. Refresh cost is what bounds the query rate a live
// deployment can sustain between stream changes (unchanged windows are
// served from cache).
func RunDynamic(e *Env) ([]*Table, error) {
	t := &Table{
		Title: "Extension: continuous diversification — refresh cost vs window size",
		Note: fmt.Sprintf("k=5, t=100, d=3, IND stream; rebuild: the first refresh after the fill; "+
			"step: mean ± sd over the %d one-arrival refreshes after it", dynamicTrials-1),
		Header: []string{"window", "skyline m", "rebuild (s)", "step (s)"},
	}
	rng := rand.New(rand.NewSource(e.Seed))
	for _, window := range []int{1_000, 5_000, 20_000, 50_000} {
		mon, err := dynamic.NewMonitor(3, window, 5, 100, e.Seed)
		if err != nil {
			return nil, err
		}
		// Fill the window.
		for i := 0; i < window; i++ {
			if _, err := mon.Add([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				return nil, err
			}
		}
		var rebuild, step Sample
		m := 0
		for trial := 0; trial < dynamicTrials; trial++ {
			// Advance the stream so the cache invalidates, then time the
			// refresh through a query.
			if _, err := mon.Add([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				return nil, err
			}
			start := time.Now()
			sky, err := mon.Skyline()
			if err != nil {
				return nil, err
			}
			if _, err := mon.Diverse(); err != nil {
				return nil, err
			}
			if trial == 0 {
				rebuild.AddDuration(time.Since(start))
			} else {
				step.AddDuration(time.Since(start))
			}
			m = len(sky)
		}
		t.AddRow(window, m, rebuild.String(), step.String())
	}
	return []*Table{t}, nil
}
