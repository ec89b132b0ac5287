package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, step, want int }{
		{1000, 5, 990}, // 10 beyond p99, 5 beyond p99.5
		{1000, 1, 990}, // p99.1 would leave 9
		{25, 50, 600},  // 10 beyond p60
		{30, 50, 650},
		{220, 50, 950},
		{10, 50, 0}, // too few samples for any tail
	} {
		got := highestTail(tc.n, tc.step)
		if got != tc.want {
			t.Errorf("highestTail(%d, %d) = %d, want %d", tc.n, tc.step, got, tc.want)
		}
		if got > 0 && (beyond(tc.n, got) < minBeyond || beyond(tc.n, got+tc.step) >= minBeyond) {
			t.Errorf("highestTail(%d, %d) = %d is not the highest with %d beyond", tc.n, tc.step, got, minBeyond)
		}
	}
	var samples []time.Duration
	for i := 100; i >= 1; i-- {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	if got := percentileMs(samples, 990); got != 99 {
		t.Errorf("p99 of 1..100 ms = %v, want 99", got)
	}
	if got := percentileMs(samples, 500); got != 50 {
		t.Errorf("p50 of 1..100 ms = %v, want 50", got)
	}
	if got := medianMs(samples); got != 50.5 {
		t.Errorf("median of 1..100 ms = %v, want 50.5", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	p := newPhase(2, nil)
	p.record(0, 5*time.Millisecond, true, ok, "")
	p.record(0, 7*time.Millisecond, true, partial, "cut short")
	p.record(1, 9*time.Millisecond, false, ok, "")       // an ungated write
	p.record(1, 3*time.Millisecond, true, mismatch, "a") // fails a check
	p.record(1, 4*time.Millisecond, true, mismatch, "b")
	p.record(1, 0, false, refused, "429")

	if got := p.totalOps(); got != 6 {
		t.Errorf("ops = %d, want 6", got)
	}
	if got := p.latencies(); len(got) != 1 || got[0] != 5*time.Millisecond {
		t.Errorf("latencies = %v, want only the gated success", got)
	}
	tl := p.tally()
	if tl.attempted() != 6 || tl.failed() != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", tl.attempted(), tl.failed())
	}
	if tl.n[mismatch] != 2 || tl.first[mismatch] != "a" {
		t.Errorf("mismatch count %d first %q, want 2 and \"a\"", tl.n[mismatch], tl.first[mismatch])
	}
	if tl.n[partial] != 1 || tl.n[refused] != 1 || tl.n[errored] != 0 || tl.n[degraded] != 0 {
		t.Errorf("per-class counts %v", tl.n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two parallel calls overlapping each other: their union is 10–50.
		{ID: 2, Parent: 1, Op: 1, Name: "call", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Op: 1, Name: "call", Start: 20 * ms, End: 50 * ms},
		// A late call spilling past its parent counts only inside it.
		{ID: 4, Parent: 1, Op: 1, Name: "call", Start: 90 * ms, End: 120 * ms},
		// A grandchild is charged to its parent, not to the root.
		{ID: 5, Parent: 2, Op: 1, Name: "inner", Start: 15 * ms, End: 25 * ms},
		{ID: 6, Op: 2, Name: "op", Start: 200 * ms, End: 230 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // minus 10–50 and 90–100
		2: 20 * ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 10 * ms,
		6: 30 * ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	lt := layerTimes(spans)
	if got := lt["call"][1]; got != 80*ms {
		t.Errorf("layer time of call in op 1 = %v, want 80ms", got)
	}
	if got := lt["op"][2]; got != 30*ms {
		t.Errorf("layer time of op 2 = %v, want 30ms", got)
	}

	tr := newTracer()
	d := tr.do("layer", 1, 0, func() { time.Sleep(time.Millisecond) })
	if got := tr.snapshot(); len(got) != 1 || got[0].dur() != d || d < time.Millisecond {
		t.Errorf("recorded %v for a %v call", got, d)
	}
	var none *tracer
	if none.do("layer", 1, 0, func() {}) != 0 || none.begin("x", 1, 0) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's own
// tables in step: the same workloads, end-to-end metrics and per-layer
// metrics, with the same units.
func TestManifestMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(man.Workloads), len(workloads))
	}
	for i := range man.Workloads {
		if i < len(workloads) && man.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, man.Workloads[i].Name, workloads[i].name)
		}
	}
	if len(man.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(man.EndToEnd), len(e2eUnits))
	}
	for _, m := range man.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, harness %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	if len(man.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(man.PerLayer), len(layerSpecs))
	}
	for i, m := range man.PerLayer {
		l := layerSpecs[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
}
