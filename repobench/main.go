// Command repobench is the repository's benchmark. One invocation sets up
// one seeded workload, drives it as a closed loop for a fixed time, checks
// every answer, and prints one JSON object as the last line of standard
// output: the end-to-end metrics, or with -trace 1 the per-layer split.
//
//	bash repobench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
//
// It drives the system only through exported functions: the skydiver API
// and internal/server's HTTP handler. Per-layer numbers come from
// spans the benchmark records around its own calls into each layer (see
// trace.go and layers.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything a run writes, relative to the directory the
// benchmark runs from.
const buildDir = ".bench_build"

// setupRounds is how many times a run builds its workload from scratch; the
// median is setup_s, and the last instance is the one measured.
const setupRounds = 3

// instance is one set-up copy of a workload.
type instance interface {
	// clients is the number of closed-loop clients.
	clients() int
	// prepareTrace builds what the traced phase replays against. It runs
	// after set-up is timed.
	prepareTrace(tr *tracer) error
	// op runs operation i of client c and records it in p.
	op(p *phase, c, i int)
	// check runs the end-of-run output checks and returns the failures.
	check() []string
	// layers returns the per-layer metrics of the traced phase.
	layers(untraced, traced *phase, tr *tracer) map[string]float64
	close()
}

type workload struct {
	name string
	// tailPM is the fixed tail percentile (per mille) of tail_ms:
	// highestTail of 80% of the samples a 30 s run collects on a 2-vCPU
	// host, so that a host a fifth slower still has minBeyond beyond it.
	// serve and restart use lower ones, where the highest swung by over
	// 30% between runs. serve's p90 has about 1700 reads beyond it (over
	// ten runs its p99 spread 22%, p90 4%); restart's p80 has about 100
	// reopens beyond it (p90 spread 29%).
	tailPM int
	setup  func(seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{"cold", 800, newCold},
	{"serve", 900, newServe},
	{"restart", 800, newRestart},
}

// phase is one timed closed-loop phase. Each client writes only its own
// slot, so op needs no locking for these fields.
type phase struct {
	tr      *tracer // nil unless traced
	lat     [][]time.Duration
	ops     []int
	tallies []tally
	elapsed time.Duration
	rt      runtimeStats
}

func newPhase(clients int, tr *tracer) *phase {
	return &phase{
		tr:      tr,
		lat:     make([][]time.Duration, clients),
		ops:     make([]int, clients),
		tallies: make([]tally, clients),
	}
}

// record notes a completed operation of client c; gated operations feed
// the latency metrics.
func (p *phase) record(c int, lat time.Duration, gated bool, o outcome, msg string) {
	p.ops[c]++
	p.tallies[c].add(o, msg)
	if gated && o == ok {
		p.lat[c] = append(p.lat[c], lat)
	}
}

// run drives the instance's clients back to back for d.
func (p *phase) run(in instance, d time.Duration) {
	rs := startSampler()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < len(p.ops); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				in.op(p, c, i)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt = rs.finish()
}

func (p *phase) latencies() []time.Duration {
	var all []time.Duration
	for _, l := range p.lat {
		all = append(all, l...)
	}
	return all
}

func (p *phase) totalOps() int {
	n := 0
	for _, o := range p.ops {
		n += o
	}
	return n
}

func (p *phase) tally() tally {
	var t tally
	for i := range p.tallies {
		t.merge(&p.tallies[i])
	}
	return t
}

// endToEnd computes the end-to-end metrics of a phase.
func (p *phase) endToEnd(tailPM int, setups []time.Duration) map[string]float64 {
	lat := p.latencies()
	ss := make([]float64, len(setups))
	for i, s := range setups {
		ss[i] = s.Seconds()
	}
	return map[string]float64{
		"p50_ms":  medianMs(lat),
		"tail_ms": percentileMs(lat, tailPM),
		"qps":     float64(p.totalOps()) / p.elapsed.Seconds(),
		"heap_mb": p.rt.liveMB,
		"setup_s": median(ss),
	}
}

var e2eUnits = map[string]string{
	"p50_ms": "ms", "tail_ms": "ms", "qps": "1/s", "heap_mb": "MB", "setup_s": "s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	// Every workload runs one client through sequential routes, so Go code
	// needs only one processor. With two, the garbage collector's background
	// worker needs the second vCPU of a 2-vCPU host while the client holds
	// the first, and a neighbour taking either one slows the run: in one
	// such stretch restart's p50 was 111 ms at two processors and 61 ms at
	// one, against 53 and 59 ms in a quiet one.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = also run a traced phase and print the per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: repobench --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	out, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ",")
}

// execute sets the workload up setupRounds times, measures the last
// instance, checks its outputs and assembles the result line.
func execute(w *workload, seed int64, d time.Duration, traced bool) (*output, error) {
	// Page files and dataset files go to a private directory inside the
	// build directory, removed on exit.
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, err
	}

	prof := machineProfile(w.name, seed)
	prof.SentinelStart = sentinel()

	var (
		in     instance
		setups []time.Duration
	)
	for r := 0; r < setupRounds; r++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		in, err = w.setup(seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer in.close()

	var tr *tracer
	if traced {
		tr = newTracer()
		if err := in.prepareTrace(tr); err != nil {
			return nil, fmt.Errorf("trace set-up: %w", err)
		}
		d /= 2
	}
	runtime.GC()
	plain := newPhase(in.clients(), nil)
	plain.run(in, d)
	var tp *phase
	if traced {
		runtime.GC()
		tp = newPhase(in.clients(), tr)
		tp.run(in, d)
	}
	checks := in.check()
	prof.SentinelEnd = sentinel()

	t := plain.tally()
	if tp != nil {
		tt := tp.tally()
		t.merge(&tt)
	}
	e2e := plain.endToEnd(w.tailPM, setups)
	lat := plain.latencies()
	n := len(lat)
	if beyond(n, w.tailPM) < minBeyond {
		// A slow host collects fewer samples; the percentile stays fixed so
		// that runs remain comparable, and the shortfall is reported.
		fmt.Printf("warning: tail_ms has only %d of %d samples beyond p%.1f, want %d (this run supports p%.1f)\n",
			beyond(n, w.tailPM), n, float64(w.tailPM)/10, minBeyond, float64(highestTail(n, 50))/10)
	}

	pb, _ := json.Marshal(prof)
	fmt.Printf("profile %s\n", pb)
	fmt.Printf("samples %d gated of %d ops in %.2fs; tail_ms is p%.1f; p90 %.3f p99 %.3f p99.9 %.3f max %.3f ms\n",
		n, plain.totalOps(), plain.elapsed.Seconds(), float64(w.tailPM)/10,
		percentileMs(lat, 900), percentileMs(lat, 990), percentileMs(lat, 999), percentileMs(lat, 1000))
	for i, c := range t.n {
		if i != int(ok) && c > 0 {
			fmt.Printf("failed %s: %d (first: %s)\n", outcome(i), c, t.first[i])
		}
	}
	for _, c := range checks {
		fmt.Printf("check failed: %s\n", c)
	}

	out := &output{
		Correct:   len(checks) == 0 && t.n[mismatch] == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   make(map[string]metric),
	}
	if !traced {
		for k, v := range e2e {
			out.Metrics[k] = metric{v, e2eUnits[k]}
		}
		printTable("end-to-end", out.Metrics, nil)
		return out, nil
	}

	// The traced run prints its own end-to-end numbers beside the untraced
	// phase's; the difference is the tracing overhead.
	te := tp.endToEnd(w.tailPM, setups)
	fmt.Printf("%-12s %14s %14s\n", "end-to-end", "untraced", "traced")
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("%-12s %14.4f %14.4f %s\n", k, e2e[k], te[k], e2eUnits[k])
	}
	got := in.layers(plain, tp, tr)
	for _, l := range layerSpecs {
		out.Metrics[l.name] = metric{got[l.name], l.unit}
	}
	printTable("per-layer", out.Metrics, got)
	drift, err := compareExact(filepath.Join(buildDir, "exact", fmt.Sprintf("%s-seed%d.json", w.name, seed)), got)
	if err != nil {
		return nil, err
	}
	for _, d := range drift {
		fmt.Printf("check failed: %s\n", d)
		out.Correct = false
	}
	if err := tr.dump(filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return out, nil
}

// exactCounts are per-layer counts that must repeat exactly across runs of
// one program with one seed; a traced run records them and compares them
// with the last traced run of the same workload and seed.
var exactCounts = []string{
	"skydiver.sim_io_ms", "pager.reads_per_query", "pager.faults_per_query",
	"rtree.decodes_per_open", "core.fpcache_builds",
}

// compareExact compares this run's exact counts with those stored at path,
// then stores this run's. It returns one message per count that differs.
func compareExact(path string, got map[string]float64) ([]string, error) {
	cur := make(map[string]float64)
	for _, name := range exactCounts {
		cur[name] = got[name]
	}
	var drift []string
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, name := range exactCounts {
			if prev[name] != cur[name] {
				drift = append(drift, fmt.Sprintf("exact count %s is %v, an earlier run with this seed had %v", name, cur[name], prev[name]))
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(cur)
	if err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, b, 0o644)
}

// printTable prints metrics in name order; with measured non-nil, metrics
// the workload did not measure are marked as such.
func printTable(title string, ms map[string]metric, measured map[string]float64) {
	fmt.Println(title)
	for _, k := range sortedKeys(ms) {
		note := ""
		if _, found := measured[k]; measured != nil && !found {
			note = "  (not exercised by this workload)"
		}
		fmt.Printf("  %-30s %14.4f %s%s\n", k, ms[k].Value, ms[k].Unit, note)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
