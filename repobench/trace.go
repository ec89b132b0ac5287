package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the ID of the enclosing span (0 = none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; dump writes them out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span with the given ID and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, op, parent int, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	fn()
	return t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (parallel shard calls) or spill past the parent (a hedged call finishing
// late); only the covered part of the parent's own interval counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi time.Duration, ivs []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var clipped []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, end time.Duration
	end = lo
	for _, c := range clipped {
		if c.b <= end {
			continue
		}
		total += c.b - max(c.a, end)
		end = c.b
	}
	return total
}

// layerTimes groups self times by span name and operation: for each name it
// returns one value per operation, the sum of that operation's spans of the
// name.
func layerTimes(spans []span) map[string]map[int]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]map[int]time.Duration)
	for _, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = make(map[int]time.Duration)
			out[s.Name] = m
		}
		m[s.Op] += self[s.ID]
	}
	return out
}

// medianOps is the median in milliseconds of one layer's per-operation
// times.
func medianOps(byOp map[int]time.Duration) float64 {
	var xs []float64
	for _, d := range byOp {
		xs = append(xs, ms(d))
	}
	return median(xs)
}
