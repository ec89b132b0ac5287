package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// profile identifies the machine and toolchain a result came from, so runs
// from different machines are not compared by accident.
type profile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// SentinelStart and SentinelEnd time the fixed reference kernels at the
	// start and end of the run. They move with the host, not with the
	// program, so a drift in them explains a drift in the metrics.
	SentinelStart sentinelTimes `json:"sentinel_start"`
	SentinelEnd   sentinelTimes `json:"sentinel_end"`
}

func machineProfile(workload string, seed int64) profile {
	p := profile{
		Workload:   workload,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "unknown",
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				p.GOAMD64 = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, found := strings.Cut(sc.Text(), ":"); found && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return p
}

// sentinelSink keeps the reference kernels' results observable.
var sentinelSink uint64

// sentinelTimes are the medians of three timings of each reference kernel.
type sentinelTimes struct {
	// ALUMs times a multiply-xorshift chain that stays in registers: the
	// core's speed.
	ALUMs float64 `json:"alu_ms"`
	// MemMs times a dependent walk over a 32 MiB random cycle: memory
	// latency, which neighbours on a shared host can move on their own.
	MemMs float64 `json:"mem_ms"`
}

// sentinel times the benchmark's own reference kernels.
func sentinel() sentinelTimes {
	const n = 8 << 20 // 32 MiB of uint32
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	var alu, mem []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x >> 29
			x *= 0xBF58476D1CE4E5B9
			x ^= x << 17
		}
		alu = append(alu, ms(time.Since(start)))
		start = time.Now()
		p := uint32(0)
		for i := 0; i < 500_000; i++ {
			p = next[p]
		}
		mem = append(mem, ms(time.Since(start)))
		sentinelSink += x + uint64(p)
	}
	return sentinelTimes{ALUMs: median(alu), MemMs: median(mem)}
}

// runtimeSampler watches the Go runtime during a timed phase: the live heap
// after each GC cycle, bytes allocated, and the share of CPU spent in GC.
type runtimeSampler struct {
	stop chan struct{}
	done sync.WaitGroup

	// Written only by the sampling goroutine until done.
	cycles uint64
	lives  []float64

	start [5]metrics.Sample
}

var sampleNames = [5]string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() [5]metrics.Sample {
	var s [5]metrics.Sample
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

// startSampler begins sampling; it polls every 10 ms, which is shorter than
// any GC cycle the workloads run, until finish is called.
func startSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), start: readRuntime()}
	rs.cycles = rs.start[4].Value.Uint64()
	rs.done.Add(1)
	go func() {
		defer rs.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-tick.C:
				rs.observe(readRuntime())
			}
		}
	}()
	return rs
}

// observe records the live heap once per completed GC cycle.
func (rs *runtimeSampler) observe(s [5]metrics.Sample) {
	if c := s[4].Value.Uint64(); c != rs.cycles {
		rs.cycles = c
		rs.lives = append(rs.lives, float64(s[0].Value.Uint64())/(1<<20))
	}
}

// runtimeStats is what a sampler saw over its phase.
type runtimeStats struct {
	// liveMB is the mean over the phase's GC cycles of the live heap each
	// cycle marked, or the live heap at the start when no cycle ran. The
	// highest cycle swings with whether a collection happened to mark an
	// operation's peak, and the median with which stage of an operation
	// the collections lock onto; the mean does neither.
	liveMB   float64
	allocMB  float64
	gcCPUPct float64
}

// finish stops the sampler and returns what it saw.
func (rs *runtimeSampler) finish() runtimeStats {
	close(rs.stop)
	rs.done.Wait()
	end := readRuntime()
	rs.observe(end)
	gc := end[2].Value.Float64() - rs.start[2].Value.Float64()
	total := end[3].Value.Float64() - rs.start[3].Value.Float64()
	st := runtimeStats{
		liveMB:  mean(rs.lives),
		allocMB: float64(end[1].Value.Uint64()-rs.start[1].Value.Uint64()) / (1 << 20),
	}
	if len(rs.lives) == 0 {
		st.liveMB = float64(rs.start[0].Value.Uint64()) / (1 << 20)
	}
	if total > 0 {
		st.gcCPUPct = 100 * gc / total
	}
	return st
}
