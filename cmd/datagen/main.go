// Command datagen generates the synthetic datasets of the paper's
// evaluation (Table 4) and streams them to disk one row at a time, so a
// 10M-row dataset is generated once and reused across tool invocations
// without ever residing in memory.
//
// The default -format binary emits the repository's .skd format, readable
// by skydiver -in (materialized or -stream) and by skydiver.OpenDatasetSource.
// -format json emits one JSON array per row for interop with other tooling.
//
// Examples:
//
//	datagen -dist ant -n 5000000 -d 4 -out ant-5m-4d.skd
//	datagen -dist fc -n 0 -out fc.skd          # full 581,012-row Forest Cover stand-in
//	datagen -dist ind -n 1000 -format json -out ind.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"skydiver/internal/data"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dist   = fs.String("dist", "ind", "distribution: ind, ant, corr, clust, fc, rec")
		n      = fs.Int("n", 1000000, "cardinality (fc/rec default to the paper sizes when 0)")
		d      = fs.Int("d", 4, "dimensionality (ignored by fc/rec, which are 7-dimensional)")
		k      = fs.Int("clusters", 8, "cluster count for -dist clust")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (required; .skd suffix conventional for binary)")
		format = fs.String("format", "binary", "output format: binary (.skd, streamed) or json (one row per line)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "datagen: -out is required")
		return 2
	}
	src, err := source(*dist, *n, *d, *k, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 2
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	switch *format {
	case "binary":
		err = data.WriteSource(f, src)
	case "json":
		err = writeJSON(f, src)
	default:
		f.Close()
		os.Remove(*out)
		fmt.Fprintf(stderr, "datagen: unknown format %q (want binary or json)\n", *format)
		return 2
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %s n=%d d=%d\n", *out, src.Name(), src.Len(), src.Dims())
	return 0
}

// source builds the streaming generator for a distribution, in any case
// (data.GenerateSource, plus clust); nothing is materialized, so
// -n 10000000 costs one row of memory.
func source(dist string, n, d, k int, seed int64) (data.Source, error) {
	switch strings.ToLower(dist) {
	case "clust":
		return data.ClusteredSource(n, d, k, seed), nil
	case "fc", "rec":
		d = 0 // 7-dimensional: -d is ignored
	}
	if !data.IsGenerator(dist) {
		return nil, fmt.Errorf("unknown distribution %q (want ind, ant, corr, clust, fc or rec)", dist)
	}
	return data.GenerateSource(dist, n, d, seed)
}

// writeJSON streams the source as one JSON array per line.
func writeJSON(w io.Writer, src data.Source) error {
	if err := src.Reset(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for {
		row, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
