// Package poset implements partially ordered categorical domains and
// skyline diversification over mixed numeric/categorical data.
//
// A central claim of the paper (Sections 1-2) is that dominance-based
// diversification — unlike the Lp-distance techniques it replaces — remains
// applicable when attributes are categorical or only partially ordered,
// because both the skyline and the Jaccard diversity measure are defined
// purely through the dominance relation. This package supplies that setting:
// a Poset captures a preference DAG over categorical values (with incompar-
// able values allowed), Table combines numeric and categorical attributes,
// and Diversify runs the full SkyDiver pipeline index-free, exactly as the
// paper prescribes for domains where multidimensional indexes cannot exist.
package poset

import "fmt"

// Poset is a finite partial order over named categorical values. Value a is
// "preferred or equal" to b when a ≼ b (smaller is better, matching the
// repository's canonical orientation).
type Poset struct {
	names []string
	index map[string]int
	// leq[i] is a bitset over value ids: bit j set means i ≼ j
	// (i is at least as preferred as j). Reflexive and transitive.
	leq []bitset
}

// Builder accumulates values and preference edges, then builds the Poset.
type Builder struct {
	names []string
	index map[string]int
	edges [][2]int // better -> worse
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder {
	return &Builder{index: map[string]int{}}
}

// Add registers a value (idempotent) and returns the builder for chaining.
func (b *Builder) Add(name string) *Builder {
	if _, ok := b.index[name]; !ok {
		b.index[name] = len(b.names)
		b.names = append(b.names, name)
	}
	return b
}

// Prefer records that better is strictly preferred to worse, registering
// both values if needed. Transitivity is applied at Build time.
func (b *Builder) Prefer(better, worse string) *Builder {
	b.Add(better)
	b.Add(worse)
	b.edges = append(b.edges, [2]int{b.index[better], b.index[worse]})
	return b
}

// Build computes the reflexive-transitive closure and validates acyclicity
// (a preference cycle would make "better" meaningless).
func (b *Builder) Build() (*Poset, error) {
	n := len(b.names)
	if n == 0 {
		return nil, fmt.Errorf("poset: no values")
	}
	p := &Poset{
		names: append([]string{}, b.names...),
		index: make(map[string]int, n),
		leq:   make([]bitset, n),
	}
	for name, i := range b.index {
		p.index[name] = i
	}
	adj := make([][]int, n)
	for _, e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	// DFS from each value to compute reachability; a back edge to the start
	// reveals a cycle through it.
	for start := 0; start < n; start++ {
		p.leq[start] = newBitset(n)
		p.leq[start].set(start)
		stack := append([]int{}, adj[start]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == start {
				return nil, fmt.Errorf("poset: preference cycle through %q", p.names[start])
			}
			if p.leq[start].get(v) {
				continue
			}
			p.leq[start].set(v)
			stack = append(stack, adj[v]...)
		}
	}
	return p, nil
}

// Chain builds a total order from best to worst — a convenience for the
// common fully-ordered case. It fails on invalid input, e.g. a duplicated
// value, which would form a cycle.
func Chain(bestToWorst ...string) (*Poset, error) {
	b := NewBuilder()
	for i := 0; i+1 < len(bestToWorst); i++ {
		b.Prefer(bestToWorst[i], bestToWorst[i+1])
	}
	if len(bestToWorst) == 1 {
		b.Add(bestToWorst[0])
	}
	return b.Build()
}

// Len returns the number of values.
func (p *Poset) Len() int { return len(p.names) }

// Name returns the name of value id.
func (p *Poset) Name(id int) string { return p.names[id] }

// ID returns the id of a named value, or an error if unknown.
func (p *Poset) ID(name string) (int, error) {
	id, ok := p.index[name]
	if !ok {
		return 0, fmt.Errorf("poset: unknown value %q", name)
	}
	return id, nil
}

// Leq reports a ≼ b: a is at least as preferred as b.
func (p *Poset) Leq(a, b int) bool { return p.leq[a].get(b) }

// Strict reports a ≺ b: a strictly preferred to b.
func (p *Poset) Strict(a, b int) bool { return a != b && p.leq[a].get(b) }

// Comparable reports whether a and b are ordered either way.
func (p *Poset) Comparable(a, b int) bool {
	return p.leq[a].get(b) || p.leq[b].get(a)
}

// Values returns all value names in id order.
func (p *Poset) Values() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
