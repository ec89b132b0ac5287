package poset

import (
	"context"
	"fmt"
	"sort"

	"skydiver/internal/core"
	"skydiver/internal/minhash"
)

// Attr describes one attribute of a mixed table: either numeric
// (minimization, matching the canonical orientation) or categorical over a
// partial order.
type Attr struct {
	// Name labels the attribute.
	Name string
	// Order is nil for numeric attributes; otherwise the categorical
	// partial order governing dominance on this attribute.
	Order *Poset
}

// Table is a dataset mixing numeric and partially ordered categorical
// attributes. No multidimensional index exists for such data (the paper's
// Section 4.1.1 motivation for the index-free path), so all operations run
// by sequential scans.
type Table struct {
	attrs []Attr
	// vals is row-major; categorical cells hold the float64 image of the
	// value id.
	vals []float64
	rows int
}

// NewTable creates an empty table with the given schema.
func NewTable(attrs []Attr) (*Table, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("poset: empty schema")
	}
	return &Table{attrs: append([]Attr{}, attrs...)}, nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// Dims returns the number of attributes.
func (t *Table) Dims() int { return len(t.attrs) }

// Attrs returns the schema.
func (t *Table) Attrs() []Attr { return t.attrs }

// AppendRow adds a row; cells must match the schema, with categorical cells
// given as value names.
func (t *Table) AppendRow(cells ...any) error {
	if len(cells) != len(t.attrs) {
		return fmt.Errorf("poset: row has %d cells, schema has %d attributes", len(cells), len(t.attrs))
	}
	row := make([]float64, len(cells))
	for i, c := range cells {
		attr := t.attrs[i]
		if attr.Order == nil {
			switch v := c.(type) {
			case float64:
				row[i] = v
			case int:
				row[i] = float64(v)
			default:
				return fmt.Errorf("poset: attribute %q is numeric, got %T", attr.Name, c)
			}
			continue
		}
		name, ok := c.(string)
		if !ok {
			return fmt.Errorf("poset: attribute %q is categorical, got %T", attr.Name, c)
		}
		id, err := attr.Order.ID(name)
		if err != nil {
			return err
		}
		row[i] = float64(id)
	}
	t.vals = append(t.vals, row...)
	t.rows++
	return nil
}

// row returns the i-th row (internal representation).
func (t *Table) row(i int) []float64 {
	d := len(t.attrs)
	return t.vals[i*d : (i+1)*d]
}

// Cell returns the display value of a cell: float64 for numeric attributes,
// the value name for categorical ones.
func (t *Table) Cell(i, j int) any {
	v := t.row(i)[j]
	if ord := t.attrs[j].Order; ord != nil {
		return ord.Name(int(v))
	}
	return v
}

// Dominates reports whether row a dominates row b: at least as good on
// every attribute (numeric ≤, categorical ≼ in the partial order) and
// strictly better on at least one. Incomparable categorical values block
// dominance entirely, as in skylines over partially ordered domains.
func (t *Table) Dominates(a, b int) bool {
	ra, rb := t.row(a), t.row(b)
	strict := false
	for j, attr := range t.attrs {
		if attr.Order == nil {
			if ra[j] > rb[j] {
				return false
			}
			if ra[j] < rb[j] {
				strict = true
			}
			continue
		}
		va, vb := int(ra[j]), int(rb[j])
		if !attr.Order.Leq(va, vb) {
			return false
		}
		if va != vb {
			strict = true
		}
	}
	return strict
}

// equalRow reports componentwise equality.
func (t *Table) equalRow(a, b int) bool {
	ra, rb := t.row(a), t.row(b)
	for j := range ra {
		if ra[j] != rb[j] {
			return false
		}
	}
	return true
}

// Skyline returns the rows not dominated by any other row (first index kept
// among identical rows), by block-nested-loops with the mixed dominance
// oracle.
func (t *Table) Skyline() []int {
	var window []int
next:
	for i := 0; i < t.rows; i++ {
		for _, w := range window {
			if t.Dominates(w, i) || t.equalRow(w, i) {
				continue next
			}
		}
		keep := window[:0]
		for _, w := range window {
			if !t.Dominates(i, w) {
				keep = append(keep, w)
			}
		}
		window = append(keep, i)
	}
	out := append([]int{}, window...)
	sort.Ints(out)
	return out
}

// Result reports a mixed-table diversification outcome.
type Result struct {
	// Sky holds the skyline row indexes.
	Sky []int
	// Selected holds positions within Sky, in selection order.
	Selected []int
	// Rows holds the selected row indexes.
	Rows []int
	// Stats carries the cost accounting of the run.
	Stats core.Stats
}

// Diversify runs the full index-free SkyDiver pipeline on the mixed table:
// skyline by BNL, Γ fingerprinting by one scan with the mixed dominance
// oracle (fingerprint), and SkyDiver-MH's greedy max-min selection over
// estimated Jaccard distances.
func (t *Table) Diversify(k, signatureSize int, seed int64) (*Result, error) {
	if signatureSize <= 0 {
		signatureSize = core.DefaultSignatureSize
	}
	sky := t.Skyline()
	if k < 1 || k > len(sky) {
		return nil, fmt.Errorf("poset: k = %d out of range [1, %d]", k, len(sky))
	}
	in := core.Input{Sky: sky, Builder: func(ctx context.Context, fam *minhash.Family) (*core.Fingerprint, error) {
		return t.fingerprint(ctx, sky, fam)
	}}
	res, err := core.SkyDiverMHCtx(context.Background(), in, core.Config{K: k, SignatureSize: signatureSize, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Result{Sky: sky, Selected: res.Selected, Rows: res.DataIndexes, Stats: res.Stats}, nil
}

// fingerprint is Diversify's Phase 1 over the skyline rows sky: every row
// off the skyline, hashed as its index, is folded into the signatures of
// the skyline rows that Dominates names for it.
func (t *Table) fingerprint(ctx context.Context, sky []int, fam *minhash.Family) (*core.Fingerprint, error) {
	inSky := make([]bool, t.rows)
	for _, s := range sky {
		inSky[s] = true
	}
	return core.SigGenFunc(ctx, fam, len(sky), t.rows, len(t.attrs), func(row int, set []uint64) (bool, error) {
		if inSky[row] {
			return false, nil
		}
		clear(set)
		found := false
		for j, s := range sky {
			if t.Dominates(s, row) {
				set[j>>6] |= 1 << (j & 63)
				found = true
			}
		}
		return found, nil
	})
}
