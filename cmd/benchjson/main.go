// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of benchmark records, one per benchmark name:
//
//	[{"name": "BenchmarkEstimateJs", "ns_per_op": 731.0, "allocs_per_op": 0}, ...]
//
// Only the fields the repository's performance tracking cares about are kept
// (name, ns/op, allocs/op — the latter -1 when the run lacked -benchmem).
// The trailing "-P" GOMAXPROCS suffix go test appends on multi-proc hosts
// (and omits when GOMAXPROCS is 1) is stripped, so snapshots taken on
// machines with different core counts stay comparable by name — which is
// what cmd/benchgate keys its regression comparison on. The samples of one
// name that a -count=N run prints collapse into one record holding their
// median ns/op and median allocs/op, so a stall that lands in one sample
// does not move the snapshot. Non-benchmark lines
// (PASS, ok, pkg headers) are ignored. Exits non-zero if no benchmark line
// was found, so a misspelled -bench regexp fails CI instead of silently
// emitting [].
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime=1x ./... | benchjson -o BENCH.json
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

type record struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is -1 when the benchmark ran without -benchmem.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	records, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	if len(records) == 0 {
		fail(fmt.Errorf("no benchmark result lines on stdin (bad -bench regexp?)"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(records))
}

// parse extracts one record per benchmark name, in the order the names first
// appear, from result lines of the format
// "BenchmarkName-P <iters> <value> <unit> [<value> <unit>]...", where
// value/unit pairs include "ns/op" always and "allocs/op" under -benchmem.
// A name with several result lines gets the median of each metric (the
// lower middle sample for an even count).
func parse(r io.Reader) ([]record, error) {
	var records []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		rec := record{Name: stripProcSuffix(fields[0]), NsPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // trailing non-metric text; stop pairing
			}
			switch fields[i+1] {
			case "ns/op":
				rec.NsPerOp = v
			case "allocs/op":
				rec.AllocsPerOp = int64(v)
			}
		}
		if rec.NsPerOp < 0 {
			continue // a benchmark line without ns/op is not a result line
		}
		records = append(records, rec)
	}
	return collapse(records), sc.Err()
}

// collapse merges the records of each name into the first one, with the
// median ns/op and the median allocs/op of all of them.
func collapse(records []record) []record {
	samples := map[string][]record{}
	var out []record
	for _, rec := range records {
		if _, seen := samples[rec.Name]; !seen {
			out = append(out, rec)
		}
		samples[rec.Name] = append(samples[rec.Name], rec)
	}
	for i := range out {
		s := samples[out[i].Name]
		ns, allocs := make([]float64, len(s)), make([]int64, len(s))
		for j, rec := range s {
			ns[j], allocs[j] = rec.NsPerOp, rec.AllocsPerOp
		}
		out[i].NsPerOp, out[i].AllocsPerOp = median(ns), median(allocs)
	}
	return out
}

// median returns the middle value of v, the lower middle one when len(v) is
// even; it sorts v.
func median[T cmp.Ordered](v []T) T {
	slices.Sort(v)
	return v[(len(v)-1)/2]
}

// stripProcSuffix removes go test's "-P" GOMAXPROCS decoration from a
// benchmark name ("BenchmarkEstimateJs-8" → "BenchmarkEstimateJs"). The
// suffix is absent on GOMAXPROCS=1 hosts, so leaving it in place would make
// the same benchmark appear under two names depending on the machine.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
