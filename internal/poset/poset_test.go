package poset

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"skydiver/internal/core"
	"skydiver/internal/minhash"
)

// mustChain builds a total order known to be valid, failing the test on
// error.
func mustChain(tb testing.TB, bestToWorst ...string) *Poset {
	tb.Helper()
	p, err := Chain(bestToWorst...)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// diamond builds the classic partial order: top ≺ {left, right} ≺ bottom,
// with left and right incomparable.
func diamond(t *testing.T) *Poset {
	t.Helper()
	p, err := NewBuilder().
		Prefer("top", "left").
		Prefer("top", "right").
		Prefer("left", "bottom").
		Prefer("right", "bottom").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderBasics(t *testing.T) {
	p := diamond(t)
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	top, _ := p.ID("top")
	left, _ := p.ID("left")
	right, _ := p.ID("right")
	bottom, _ := p.ID("bottom")
	if !p.Strict(top, bottom) {
		t.Error("transitivity: top must beat bottom")
	}
	if !p.Leq(top, top) {
		t.Error("reflexivity")
	}
	if p.Strict(top, top) {
		t.Error("Strict must be irreflexive")
	}
	if p.Comparable(left, right) {
		t.Error("left/right must be incomparable")
	}
	if !p.Comparable(left, bottom) {
		t.Error("left/bottom must be comparable")
	}
	if p.Name(top) != "top" {
		t.Error("Name broken")
	}
	if _, err := p.ID("nope"); err == nil {
		t.Error("expected unknown value error")
	}
	if len(p.Values()) != 4 {
		t.Error("Values broken")
	}
}

func TestBuilderCycleDetection(t *testing.T) {
	_, err := NewBuilder().Prefer("a", "b").Prefer("b", "c").Prefer("c", "a").Build()
	if err == nil {
		t.Error("expected cycle error")
	}
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("expected empty error")
	}
	// Self-loop.
	if _, err := NewBuilder().Prefer("a", "a").Build(); err == nil {
		t.Error("expected self-cycle error")
	}
}

func TestChain(t *testing.T) {
	p, err := Chain("new", "like-new", "used")
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	nw, _ := p.ID("new")
	used, _ := p.ID("used")
	if !p.Strict(nw, used) {
		t.Error("chain order broken")
	}
	single, err := Chain("only")
	if err != nil {
		t.Fatalf("Chain single: %v", err)
	}
	if single.Len() != 1 {
		t.Error("singleton chain broken")
	}
	if _, err := Chain("a", "b", "a"); err == nil {
		t.Error("expected error on cyclic chain")
	}
}

// TestPosetIsPartialOrder: reflexive, antisymmetric, transitive on random DAGs.
func TestPosetIsPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(10)
		b := NewBuilder()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			b.Add(names[i])
		}
		// Random edges respecting index order guarantee acyclicity.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					b.Prefer(names[i], names[j])
				}
			}
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !p.Leq(i, i) {
				t.Fatal("reflexivity violated")
			}
			for j := 0; j < n; j++ {
				if i != j && p.Leq(i, j) && p.Leq(j, i) {
					t.Fatal("antisymmetry violated")
				}
				for k := 0; k < n; k++ {
					if p.Leq(i, j) && p.Leq(j, k) && !p.Leq(i, k) {
						t.Fatal("transitivity violated")
					}
				}
			}
		}
	}
}

func marketplaceTable(t *testing.T) *Table {
	t.Helper()
	condition := mustChain(t, "new", "like-new", "used")
	brandRep, err := NewBuilder().
		Prefer("premium", "known").
		Prefer("known", "obscure").
		Prefer("boutique", "obscure"). // boutique incomparable to premium/known
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable([]Attr{
		{Name: "price"},
		{Name: "condition", Order: condition},
		{Name: "brand", Order: brandRep},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		price float64
		cond  string
		brand string
	}{
		{100, "new", "premium"},      // 0: skyline (beats everything comparable)
		{120, "new", "premium"},      // 1: dominated by 0
		{90, "used", "premium"},      // 2: skyline (cheaper)
		{100, "new", "boutique"},     // 3: skyline (brand incomparable to premium)
		{100, "like-new", "premium"}, // 4: dominated by 0
		{80, "used", "obscure"},      // 5: skyline (cheapest)
		{85, "used", "obscure"},      // 6: dominated by 5
	}
	for _, r := range rows {
		if err := tab.AppendRow(r.price, r.cond, r.brand); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestTableSkylinePartialOrder(t *testing.T) {
	tab := marketplaceTable(t)
	if tab.Len() != 7 || tab.Dims() != 3 {
		t.Fatal("table accessors")
	}
	sky := tab.Skyline()
	want := []int{0, 2, 3, 5}
	if len(sky) != len(want) {
		t.Fatalf("skyline = %v, want %v", sky, want)
	}
	for i := range want {
		if sky[i] != want[i] {
			t.Fatalf("skyline = %v, want %v", sky, want)
		}
	}
	// Incomparability kept row 3 despite identical price/condition with 0.
	if tab.Dominates(0, 3) || tab.Dominates(3, 0) {
		t.Error("incomparable brands must not dominate")
	}
	if !tab.Dominates(0, 1) {
		t.Error("0 must dominate 1")
	}
	if got := tab.Cell(3, 2); got != "boutique" {
		t.Errorf("Cell = %v", got)
	}
	if got := tab.Cell(3, 0); got != 100.0 {
		t.Errorf("Cell = %v", got)
	}
}

func TestTableAppendErrors(t *testing.T) {
	tab := marketplaceTable(t)
	if err := tab.AppendRow(1.0); err == nil {
		t.Error("expected arity error")
	}
	if err := tab.AppendRow("x", "new", "premium"); err == nil {
		t.Error("expected numeric type error")
	}
	if err := tab.AppendRow(1.0, 5, "premium"); err == nil {
		t.Error("expected categorical type error")
	}
	if err := tab.AppendRow(1.0, "shredded", "premium"); err == nil {
		t.Error("expected unknown value error")
	}
	if err := tab.AppendRow(1, "new", "premium"); err != nil {
		t.Errorf("int must coerce to numeric: %v", err)
	}
	if _, err := NewTable(nil); err == nil {
		t.Error("expected empty schema error")
	}
}

func TestTableDiversify(t *testing.T) {
	condition := mustChain(t, "new", "like-new", "used")
	tab, err := NewTable([]Attr{
		{Name: "price"},
		{Name: "weight"},
		{Name: "condition", Order: condition},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	conds := []string{"new", "like-new", "used"}
	for i := 0; i < 3000; i++ {
		if err := tab.AppendRow(r.Float64()*100, r.Float64()*10, conds[r.Intn(3)]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tab.Diversify(4, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Selected) != 4 {
		t.Fatal("wrong selection size")
	}
	inSky := map[int]bool{}
	for _, s := range res.Sky {
		inSky[s] = true
	}
	for i, row := range res.Rows {
		if !inSky[row] {
			t.Fatalf("selected row %d not on the skyline", row)
		}
		if res.Sky[res.Selected[i]] != row {
			t.Fatal("Selected/Rows inconsistent")
		}
	}
	if res.Stats.IO.Faults == 0 {
		t.Error("index-free pass must charge sequential faults")
	}
	if res.Stats.MemoryBytes == 0 {
		t.Error("signature memory not reported")
	}
	// Validation.
	if _, err := tab.Diversify(0, 0, 1); err == nil {
		t.Error("expected k validation error")
	}
}

// TestDiversifyPrefersIncomparableBranch: with two incomparable categorical
// branches, the k=2 selection should take one representative from each
// rather than two from the same branch.
func TestDiversifyPrefersIncomparableBranch(t *testing.T) {
	brand, err := NewBuilder().Add("alpha").Add("beta").Build() // fully incomparable
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable([]Attr{{Name: "price"}, {Name: "brand", Order: brand}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	// Two populations: alpha rows cheap-ish, beta rows cheap-ish; the
	// skyline has exactly the cheapest alpha and the cheapest beta, and the
	// dominated sets split by brand, making the two skyline points fully
	// diverse.
	for i := 0; i < 500; i++ {
		tab.AppendRow(10+r.Float64()*90, "alpha")
		tab.AppendRow(10+r.Float64()*90, "beta")
	}
	tab.AppendRow(1.0, "alpha")
	tab.AppendRow(1.0, "beta")
	sky := tab.Skyline()
	if len(sky) != 2 {
		t.Fatalf("skyline = %v", sky)
	}
	res, err := tab.Diversify(2, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	brands := map[any]bool{}
	for _, row := range res.Rows {
		brands[tab.Cell(row, 1)] = true
	}
	if len(brands) != 2 {
		t.Errorf("selection covers brands %v, want both", brands)
	}
}

// TestTableDiversifyMatchesSigGenSets pins the mixed-table fold to the
// reference: on a table with two categorical attributes (a chain and a
// diamond) and tied numeric values, every column and domination score of
// Diversify's fingerprint equals core.SigGenSets over the Γ lists
// t.Dominates enumerates with the same family, and Diversify's selection
// equals core.DiversifySets on those lists. Skyline rows are skipped, and
// identical rows never dominate each other.
func TestTableDiversifyMatchesSigGenSets(t *testing.T) {
	condition := mustChain(t, "new", "like-new", "used")
	shape := diamond(t)
	tab, err := NewTable([]Attr{
		{Name: "price"},
		{Name: "condition", Order: condition},
		{Name: "shape", Order: shape},
		{Name: "weight"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	conds := []string{"new", "like-new", "used"}
	shapes := []string{"left", "right", "bottom", "top"}
	for i := 0; i < 2000; i++ {
		// Price and weight trade off, with ties, so the skyline is wide.
		price := r.Intn(40)
		if err := tab.AppendRow(price, conds[r.Intn(3)], shapes[r.Intn(3+i%2)], (39-price)/4+r.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	// Exact copies of every third skyline row and of 60 random rows: a
	// copy of a skyline row is off the skyline, and no copy dominates its
	// original.
	var copies []int
	for i, s := range tab.Skyline() {
		if i%3 == 0 {
			copies = append(copies, s)
		}
	}
	for range 60 {
		copies = append(copies, r.Intn(tab.Len()))
	}
	for _, src := range copies {
		if err := tab.AppendRow(tab.Cell(src, 0), tab.Cell(src, 1), tab.Cell(src, 2), tab.Cell(src, 3)); err != nil {
			t.Fatal(err)
		}
	}
	sky := tab.Skyline()
	if len(sky) < 8 {
		t.Fatalf("skyline of %d rows is too small to select from", len(sky))
	}
	inSky := map[int]bool{}
	for _, s := range sky {
		inSky[s] = true
	}
	lists := make([][]int, len(sky))
	for j, s := range sky {
		for i := 0; i < tab.Len(); i++ {
			if !inSky[i] && tab.Dominates(s, i) {
				lists[j] = append(lists[j], i)
			}
		}
	}
	for _, seed := range []int64{0, 1, 4, 7} {
		cfg := core.Config{K: 6, SignatureSize: 64, Seed: seed}
		fam, _ := minhash.NewFamily(cfg.SignatureSize, cfg.Seed)
		want, err := core.SigGenSets(lists, fam)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.fingerprint(context.Background(), sky, fam)
		if err != nil {
			t.Fatal(err)
		}
		for c := range sky {
			if !slices.Equal(got.Matrix.Column(c), want.Matrix.Column(c)) || got.DomScore[c] != want.DomScore[c] {
				t.Fatalf("seed %d: column %d differs from the brute-force Γ lists", seed, c)
			}
		}
		res, err := tab.Diversify(cfg.K, cfg.SignatureSize, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := core.DiversifySets(lists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Selected, sets.Selected) {
			t.Fatalf("seed %d: selection %v, DiversifySets %v", seed, res.Selected, sets.Selected)
		}
		for i, s := range sets.Selected {
			if res.Rows[i] != sky[s] {
				t.Fatalf("seed %d: row %d of the selection is %d, want %d", seed, i, res.Rows[i], sky[s])
			}
		}
		if wantIO := core.SyntheticScanStats(tab.Dims(), tab.Len()); res.Stats.IO != wantIO {
			t.Fatalf("seed %d: I/O %+v, want one scan %+v", seed, res.Stats.IO, wantIO)
		}
	}
}

func BenchmarkTableSkyline(b *testing.B) {
	condition := mustChain(b, "new", "like-new", "used")
	tab, _ := NewTable([]Attr{{Name: "price"}, {Name: "condition", Order: condition}})
	r := rand.New(rand.NewSource(1))
	conds := []string{"new", "like-new", "used"}
	for i := 0; i < 5000; i++ {
		tab.AppendRow(r.Float64(), conds[r.Intn(3)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Skyline()
	}
}
