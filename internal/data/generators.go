package data

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// The synthetic generators follow the methodology of Börzsönyi, Kossmann and
// Stocker ("The Skyline Operator", ICDE 2001), which the paper adopts for its
// IND and ANT datasets (Section 5.1). All generators are deterministic for a
// given seed.
//
// Each distribution is defined once, as a per-row closure factory feeding a
// streaming Source; the materializing constructors (Independent, Correlated,
// ...) drain that source into a Dataset. Because both paths consume the same
// seeded rand stream in the same row-major order, a streamed pass and a
// materialized dataset are bit-identical — which the golden tests pin.

// MaxGeneratedValues caps n·d, the coordinates one generated dataset may
// hold: 2²⁶ float64s, 512 MiB. The serving daemons generate datasets from
// request parameters (skyserved's POST /datasets, skyshardd's dataset
// specs), so without a cap one request could ask for more memory than the
// host has.
const MaxGeneratedValues = 1 << 26

// GeneratedFits reports whether an n×dims generated dataset stays within
// MaxGeneratedValues. Non-positive sizes always fit; the decoders reject
// them on their own.
func GeneratedFits(n, dims int) bool {
	return n <= MaxGeneratedValues/max(dims, 1)
}

// generators is Table 4's generator table, the one place that says which
// name means which generator. native is the attribute count of a generator
// that always draws the same attributes (FC and REC: 7), and 0 for one that
// draws any dims.
var generators = map[string]struct {
	native int
	source func(n, dims int, seed int64) Source
}{
	"IND":  {0, IndependentSource},
	"ANT":  {0, AnticorrelatedSource},
	"CORR": {0, CorrelatedSource},
	"FC":   {7, func(n, _ int, seed int64) Source { return ForestCoverSource(n, seed) }},
	"REC":  {7, func(n, _ int, seed int64) Source { return RecipesSource(n, seed) }},
}

// IsGenerator reports whether name names a generator of Generate, in any
// case.
func IsGenerator(name string) bool {
	_, ok := generators[strings.ToUpper(name)]
	return ok
}

// Generate builds the dataset of the named generator, in any case: IND,
// ANT, CORR, FC or REC. FC and REC draw their native 7 attributes and keep
// the first dims, as the paper projects them to d = 4, 5 and 7. Each equals
// its generator's constructor (Independent, ..., SyntheticRecipes and
// Project) bit for bit.
func Generate(name string, n, dims int, seed int64) (*Dataset, error) {
	native := generators[strings.ToUpper(name)].native
	src, err := GenerateSource(name, n, cmp.Or(native, dims), seed)
	if err != nil {
		return nil, err
	}
	ds, err := materialize(src)
	if err != nil || native == 0 {
		return ds, err
	}
	return ds.Project(dims)
}

// GenerateSource is the streaming form of Generate. FC and REC stream their
// native 7 attributes: dims must be 7, or at most 0 to accept them.
func GenerateSource(name string, n, dims int, seed int64) (Source, error) {
	g, ok := generators[strings.ToUpper(name)]
	switch {
	case !ok:
		return nil, fmt.Errorf("data: unknown generator %q (want ind, ant, corr, fc or rec)", name)
	case g.native == 0 && dims < 1:
		return nil, fmt.Errorf("data: non-positive dimensionality %d", dims)
	case g.native != 0 && dims > 0 && dims != g.native:
		return nil, fmt.Errorf("data: %s streams its native %d attributes, not %d", strings.ToUpper(name), g.native, dims)
	}
	return g.source(n, dims, seed), nil
}

// Independent generates n points whose coordinates are drawn independently
// and uniformly from [0, 1). Skyline cardinality grows as O((ln n)^(d-1)).
func Independent(n, dims int, seed int64) *Dataset {
	ds, _ := materialize(IndependentSource(n, dims, seed))
	return ds
}

// IndependentSource is the streaming form of Independent.
func IndependentSource(n, dims int, seed int64) Source {
	return newGenSource(fmt.Sprintf("IND-%s-%dD", humanCount(n), dims), n, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		return func(dst []float64) {
			for j := range dst {
				dst[j] = r.Float64()
			}
		}
	})
}

// Correlated generates points whose coordinates cluster around the main
// diagonal: points good in one dimension tend to be good in all, yielding
// tiny skylines.
func Correlated(n, dims int, seed int64) *Dataset {
	ds, _ := materialize(CorrelatedSource(n, dims, seed))
	return ds
}

// CorrelatedSource is the streaming form of Correlated.
func CorrelatedSource(n, dims int, seed int64) Source {
	return newGenSource(fmt.Sprintf("CORR-%s-%dD", humanCount(n), dims), n, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		return func(dst []float64) {
			base := clamp01(r.NormFloat64()*0.18 + 0.5)
			for j := range dst {
				dst[j] = clamp01(base + r.NormFloat64()*0.05)
			}
		}
	})
}

// Anticorrelated generates points near the antidiagonal hyperplane
// Σx_i ≈ const: points good in one dimension are bad in others, producing
// very large skylines. Following the standard construction, a plane offset is
// drawn from a normal distribution, the budget is split over the dimensions
// by a uniform Dirichlet sample, and a small jitter is added.
func Anticorrelated(n, dims int, seed int64) *Dataset {
	ds, _ := materialize(AnticorrelatedSource(n, dims, seed))
	return ds
}

// AnticorrelatedSource is the streaming form of Anticorrelated.
func AnticorrelatedSource(n, dims int, seed int64) Source {
	return newGenSource(fmt.Sprintf("ANT-%s-%dD", humanCount(n), dims), n, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		split := make([]float64, dims)
		return func(dst []float64) {
			budget := clamp(r.NormFloat64()*0.06+0.5, 0.05, 0.95) * float64(dims)
			// Uniform point on the simplex via normalized exponentials.
			sum := 0.0
			for j := range split {
				split[j] = r.ExpFloat64()
				sum += split[j]
			}
			for j := range dst {
				dst[j] = clamp01(budget*split[j]/sum + r.NormFloat64()*0.02)
			}
		}
	})
}

// forestCoverRows is the cardinality of the UCI Forest Cover dataset the
// paper uses (~581K rows, Table 4).
const forestCoverRows = 581012

// recipesRows is the cardinality of the Recipes dataset (~365K, Table 4).
const recipesRows = 364000

// fcAttr describes one synthetic Forest Cover attribute: its mean, standard
// deviation and clamping range, modeled on the published UCI statistics
// (elevation, aspect, slope, distances to hydrology/roadways/fire points,
// hillshade). Values are integer-quantized like the real dataset, which
// introduces the ties and duplicates that exercise strict-dominance edge
// cases.
type fcAttr struct {
	mean, std, lo, hi float64
}

// SyntheticForestCover generates the Forest Cover (FC) stand-in: 581 012 rows
// with 7 correlated, integer-quantized terrain attributes drawn from a
// 4-component mixture of terrain types. See DESIGN.md for the substitution
// rationale. Pass rows <= 0 for the full paper cardinality.
func SyntheticForestCover(rows int, seed int64) *Dataset {
	ds, _ := materialize(ForestCoverSource(rows, seed))
	return ds
}

// ForestCoverSource is the streaming form of SyntheticForestCover.
func ForestCoverSource(rows int, seed int64) Source {
	if rows <= 0 {
		rows = forestCoverRows
	}
	attrs := []fcAttr{
		{2959, 280, 1859, 3858}, // elevation (m)
		{156, 112, 0, 360},      // aspect (deg)
		{14, 7.5, 0, 66},        // slope (deg)
		{269, 212, 0, 1397},     // horiz. distance to hydrology
		{2350, 1559, 0, 7117},   // horiz. distance to roadways
		{1980, 1324, 0, 7173},   // horiz. distance to fire points
		{212, 27, 0, 254},       // hillshade 9am
	}
	const dims = 7
	// Terrain mixture components shift the means jointly, producing the
	// positive inter-attribute correlation of the real data.
	comps := [][dims]float64{
		{-1.2, 0.4, 1.1, -0.6, -0.9, -0.8, -0.5},
		{-0.2, -0.3, 0.1, 0.2, -0.1, 0.0, 0.2},
		{0.7, 0.2, -0.5, 0.4, 0.8, 0.6, 0.3},
		{1.4, -0.5, -1.0, 0.9, 1.3, 1.2, 0.1},
	}
	weights := []float64{0.2, 0.4, 0.3, 0.1}
	return newGenSource(fmt.Sprintf("FC-%s", humanCount(rows)), rows, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		return func(dst []float64) {
			c := comps[pickWeighted(r, weights)]
			// A shared latent factor adds further within-row correlation.
			latent := r.NormFloat64() * 0.35
			for j, a := range attrs {
				v := a.mean + a.std*(c[j]*0.8+latent+r.NormFloat64()*0.7)
				dst[j] = math.Round(clamp(v, a.lo, a.hi))
			}
		}
	})
}

// SyntheticRecipes generates the Recipes (REC) stand-in: ~364 000 rows with 7
// nutritional attributes (calories, fat, carbohydrates, protein, calcium,
// sodium, cholesterol). A latent serving-size factor couples the attributes,
// values are heavy-tailed (lognormal) and a substantial fraction are exact
// zeros (e.g. cholesterol in vegan recipes), reproducing the trait that makes
// REC skylines poorly coverable (Table 1). Pass rows <= 0 for the paper
// cardinality.
func SyntheticRecipes(rows int, seed int64) *Dataset {
	ds, _ := materialize(RecipesSource(rows, seed))
	return ds
}

// RecipesSource is the streaming form of SyntheticRecipes.
func RecipesSource(rows int, seed int64) Source {
	if rows <= 0 {
		rows = recipesRows
	}
	const dims = 7
	// Per-attribute lognormal location/scale and probability of an exact zero.
	type nutrient struct {
		mu, sigma, pZero, scale float64
	}
	nutrients := []nutrient{
		{5.4, 0.7, 0.00, 1}, // calories (~220 median)
		{2.0, 1.1, 0.06, 1}, // fat (g)
		{3.0, 0.9, 0.02, 1}, // carbohydrates (g)
		{2.2, 1.0, 0.04, 1}, // protein (g)
		{3.4, 1.2, 0.10, 1}, // calcium (mg)
		{5.0, 1.3, 0.03, 1}, // sodium (mg)
		{2.6, 1.5, 0.30, 1}, // cholesterol (mg)
	}
	// Recipe-type mixture: desserts, mains, salads, drinks shift profiles.
	comps := [][dims]float64{
		{0.4, 0.5, 0.7, -0.6, 0.2, -0.3, 0.1},  // dessert
		{0.3, 0.3, -0.1, 0.6, -0.1, 0.5, 0.7},  // main
		{-0.6, -0.4, -0.2, -0.3, 0.3, 0.0, -1}, // salad
		{-1.0, -1.5, 0.2, -1.2, 0.1, -0.9, -2}, // drink
	}
	weights := []float64{0.3, 0.4, 0.2, 0.1}
	return newGenSource(fmt.Sprintf("REC-%s", humanCount(rows)), rows, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		return func(dst []float64) {
			c := comps[pickWeighted(r, weights)]
			serving := r.NormFloat64() * 0.4 // latent serving-size factor
			for j, nu := range nutrients {
				if r.Float64() < nu.pZero {
					dst[j] = 0
					continue
				}
				v := math.Exp(nu.mu + c[j]*0.6 + serving + nu.sigma*r.NormFloat64())
				// Quantize to one decimal as nutrition databases do.
				dst[j] = math.Round(v*10) / 10 * nu.scale
			}
		}
	})
}

// Clustered generates n points grouped into k Gaussian clusters in [0,1)^d,
// useful for R-tree and buffer-pool tests where locality matters.
func Clustered(n, dims, k int, seed int64) *Dataset {
	ds, _ := materialize(ClusteredSource(n, dims, k, seed))
	return ds
}

// ClusteredSource is the streaming form of Clustered. The cluster centers
// are drawn eagerly (on construction and on every Reset) so that the row
// stream consumes the seeded rand exactly as the materializing generator
// always has.
func ClusteredSource(n, dims, k int, seed int64) Source {
	return newGenSource(fmt.Sprintf("CLUST-%s-%dD", humanCount(n), dims), n, dims, func() func([]float64) {
		r := rand.New(rand.NewSource(seed))
		centers := make([][]float64, k)
		for i := range centers {
			centers[i] = make([]float64, dims)
			for j := range centers[i] {
				centers[i][j] = r.Float64()
			}
		}
		return func(dst []float64) {
			c := centers[r.Intn(k)]
			for j := range dst {
				dst[j] = clamp01(c[j] + r.NormFloat64()*0.05)
			}
		}
	})
}

func pickWeighted(r *rand.Rand, w []float64) int {
	u := r.Float64()
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// humanCount renders a cardinality the way the paper names datasets
// (1M, 581K, 10K, 500).
func humanCount(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
