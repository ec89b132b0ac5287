// Command skybench regenerates the tables and figures of the paper's
// evaluation section (Section 5). Each experiment prints markdown tables
// with the same rows/series the paper reports.
//
// Usage:
//
//	skybench -exp fig10                 # one experiment
//	skybench -exp all -scale 0.05      # everything at 5% of paper cardinality
//	skybench -exp fig11 -plot          # tables plus ASCII charts
//	skybench -list                      # show the experiment registry
//
// Scale 1 reproduces the full paper cardinalities (1M-7M synthetic points);
// expect very long runs — the paper's own BF experiments had not finished by
// its submission. The DNF markers reproduce exactly those cases.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"skydiver/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against the given argument list and streams, so
// tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID   = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = fs.Float64("scale", 0.02, "fraction of the paper's dataset cardinalities")
		seed    = fs.Int64("seed", 1, "random seed for data generation and hashing")
		format  = fs.String("format", "markdown", "output format: markdown or csv")
		doPlot  = fs.Bool("plot", false, "also render each table as an ASCII chart (log-y for runtime tables)")
		list    = fs.Bool("list", false, "list available experiments and exit")
		verbose = fs.Bool("v", false, "log progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range exp.Registry {
			fmt.Fprintf(stdout, "%-10s %s\n", r.ID, r.Description)
		}
		return 0
	}

	env := exp.NewEnv()
	env.Scale = *scale
	env.Seed = *seed
	if *verbose {
		env.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "[skybench] "+format+"\n", args...)
		}
	}

	var runners []exp.Runner
	if *expID == "all" {
		runners = exp.Registry
	} else {
		for _, id := range strings.Split(*expID, ",") {
			r := exp.Lookup(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(stderr, "skybench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			runners = append(runners, *r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		tables, err := r.Run(env)
		if err != nil {
			fmt.Fprintf(stderr, "skybench: %s: %v\n", r.ID, err)
			return 1
		}
		if *verbose {
			fmt.Fprintf(stderr, "[skybench] %s finished in %v\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
		for _, t := range tables {
			var err error
			if *format == "csv" {
				fmt.Fprintf(stdout, "# %s\n", t.Title)
				err = t.WriteCSV(stdout)
				fmt.Fprintln(stdout)
			} else {
				err = t.WriteMarkdown(stdout)
			}
			if err != nil {
				fmt.Fprintf(stderr, "skybench: write: %v\n", err)
				return 1
			}
			if *doPlot {
				// Runtime/memory tables benefit from a log axis; quality
				// and percentage tables are linear.
				logY := strings.Contains(t.Title, "runtime") ||
					strings.Contains(t.Title, "time") ||
					strings.Contains(t.Title, "memory")
				chart, err := exp.TableChart(t, logY)
				if err != nil {
					continue // tables without numeric series just skip plotting
				}
				rendered, err := chart.Render()
				if err != nil {
					continue
				}
				fmt.Fprintln(stdout, rendered)
			}
		}
	}
	return 0
}
