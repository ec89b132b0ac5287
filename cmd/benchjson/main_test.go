package main

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: skydiver/internal/minhash
cpu: some CPU
BenchmarkEstimateJs-1            	 1584726	       731.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkEstimateJsMany-1        	    4279	    271842 ns/op	         2.000 est/alloc	       1 allocs/op
BenchmarkHashAll100-1            	 2951896	       405.9 ns/op
PASS
ok  	skydiver/internal/minhash	6.521s
`
	recs, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3: %+v", len(recs), recs)
	}
	// The -P GOMAXPROCS suffix is stripped so snapshots from machines with
	// different core counts stay comparable by name.
	if recs[0].Name != "BenchmarkEstimateJs" || recs[0].NsPerOp != 731.2 || recs[0].AllocsPerOp != 0 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].NsPerOp != 271842 || recs[1].AllocsPerOp != 1 {
		t.Errorf("record 1 = %+v", recs[1])
	}
	// No -benchmem on the third line: allocs must be the -1 sentinel.
	if recs[2].NsPerOp != 405.9 || recs[2].AllocsPerOp != -1 {
		t.Errorf("record 2 = %+v", recs[2])
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkEstimateJs-8":               "BenchmarkEstimateJs",
		"BenchmarkEstimateJs":                 "BenchmarkEstimateJs",
		"BenchmarkSigGenIFParallelScale/w4-2": "BenchmarkSigGenIFParallelScale/w4",
		"BenchmarkHashAll100":                 "BenchmarkHashAll100",
		"Benchmark-":                          "Benchmark-",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	recs, err := parse(strings.NewReader("PASS\nok \tpkg\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("parsed %d records from non-benchmark output", len(recs))
	}
}

// TestParseCollapsesRepeats: the samples of one name that -count=N prints
// become one record, at the name's first position, holding the median
// ns/op and the median allocs/op, each taken on its own.
func TestParseCollapsesRepeats(t *testing.T) {
	const out = `BenchmarkSelect-2   	       1	   900 ns/op	     0 B/op	       7 allocs/op
BenchmarkHash-2     	   10000	   400 ns/op
BenchmarkSelect-2   	       1	 36900 ns/op	     0 B/op	       5 allocs/op
BenchmarkSelect     	       1	   800 ns/op	     0 B/op	       9 allocs/op
BenchmarkHash-2     	   10000	   410 ns/op
BenchmarkSelect-2   	       1	   950 ns/op	     0 B/op	       6 allocs/op
BenchmarkSelect-2   	       1	   700 ns/op	     0 B/op	       8 allocs/op
`
	recs, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []record{
		{Name: "BenchmarkSelect", NsPerOp: 900, AllocsPerOp: 7},
		{Name: "BenchmarkHash", NsPerOp: 400, AllocsPerOp: -1},
	}
	if len(recs) != len(want) {
		t.Fatalf("parsed %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}
