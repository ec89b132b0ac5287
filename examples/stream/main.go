// Stream: continuous skyline diversification over a sliding window.
//
// A flight-deals monitor watches a stream of (price ↓, total travel hours ↓,
// review score ↑) offers. Only the most recent 5,000 offers matter; at any
// moment the site shows the 4 most diverse deals on the current Pareto
// frontier. The window is transient, so no index can be maintained — the
// index-free SkyDiver pipeline recomputes lazily as offers arrive.
//
// Run with: go run ./examples/stream
package main

import (
	"fmt"
	"log"
	"math/rand"

	"skydiver"
)

func main() {
	prefs := []skydiver.Pref{skydiver.Min, skydiver.Min, skydiver.Max}
	mon, err := skydiver.NewStreamMonitor(3, 5000, 4, prefs, skydiver.Options{SignatureSize: 100, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2026))
	// Simulate a day of offers in three market phases: normal pricing, a
	// flash sale on long itineraries, then a premium-carrier surge.
	phase := func(name string, n int, gen func() [3]float64) {
		for i := 0; i < n; i++ {
			p := gen()
			if _, err := mon.Add(p[:]); err != nil {
				log.Fatal(err)
			}
		}
		sky, err := mon.Skyline()
		if err != nil {
			log.Fatal(err)
		}
		deals, err := mon.Diverse()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — window %d offers, frontier %d, showing %d diverse deals:\n",
			name, mon.Len(), len(sky), len(deals))
		for _, d := range deals {
			fmt.Printf("  offer #%-6d $%-6.0f %5.1fh  %.1f★\n", d.Seq, d.Point[0], d.Point[1], d.Point[2])
		}
		fmt.Println()
	}

	phase("morning (normal pricing)", 4000, func() [3]float64 {
		tier := rng.Float64()
		return [3]float64{
			200 + 900*tier + rng.NormFloat64()*60,
			22 - 14*tier + rng.NormFloat64()*2,
			3 + 1.8*tier + rng.NormFloat64()*0.4,
		}
	})
	phase("midday (flash sale on long routes)", 3000, func() [3]float64 {
		tier := rng.Float64()
		return [3]float64{
			120 + 400*tier + rng.NormFloat64()*40, // much cheaper
			26 - 8*tier + rng.NormFloat64()*2,     // but slower
			2.5 + 1.5*tier + rng.NormFloat64()*0.4,
		}
	})
	phase("evening (premium surge)", 3000, func() [3]float64 {
		tier := rng.Float64()
		return [3]float64{
			700 + 1500*tier + rng.NormFloat64()*80,
			10 - 5*tier + rng.NormFloat64()*1, // fast
			4 + 0.9*tier + rng.NormFloat64()*0.2,
		}
	})

	fmt.Println("The shown deals track the market: flash-sale bargains displace the")
	fmt.Println("morning frontier, then premium fast flights displace those — each")
	fmt.Println("refresh replays only the offers that arrived or expired since the last.")
}
