// Command skydiver computes the k most diverse skyline points of a dataset.
//
// Input is either a CSV file of numeric rows or a built-in synthetic
// generator. Preferences default to minimization on every dimension; pass
// -prefs to mix (e.g. -prefs min,max for cheap-and-good).
//
// Examples:
//
//	skydiver -gen ant -n 100000 -d 4 -k 10
//	skydiver -in hotels.csv -prefs min,max -k 5 -algo sg
//	skydiver -gen fc -d 5 -k 10 -algo lsh -verbose
//	skydiver -gen ant -k 10 -parallel 8 -maxinflight 2 -budget pages=512,wall=50ms -shed
//	skydiver -gen ind -n 1000000 -k 10 -storage file -save-index ind.snap
//	skydiver -gen ind -n 1000000 -k 10 -storage file -load-index ind.snap
//	skydiver -in big.skd -stream -k 10 -window 4096
//
// Outcomes are distinguished by exit code (see -h): 0 complete, 1 error,
// 2 bad command line, 3 partial, 4 shed by admission control, 5 degraded.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"skydiver"
)

// Exit codes, also documented in the usage text. Precedence when several
// apply: overloaded > partial > degraded.
const (
	exitOK         = 0
	exitError      = 1
	exitUsage      = 2 // emitted by the flag package itself
	exitPartial    = 3
	exitOverloaded = 4
	exitDegraded   = 5
)

const usageExitCodes = `
exit codes:
  0  complete result
  1  error, no result produced
  2  bad command line
  3  partial result: the deadline, a signal or the -budget cut the run short,
     and the valid diverse prefix selected so far was printed
  4  query shed by admission control (-maxinflight saturated); no work done
  5  degraded result: -shed served a fallback (cached or reduced-fidelity
     fingerprint, index-free scan, or budget-bounded prefix)
`

func main() {
	var (
		input    = flag.String("in", "", "input file: CSV of numeric rows, or a binary .skd file from datagen (mutually exclusive with -gen)")
		gen      = flag.String("gen", "", "synthetic generator: ind, ant, corr, fc, rec")
		n        = flag.Int("n", 100000, "cardinality for -gen")
		d        = flag.Int("d", 4, "dimensionality for -gen")
		k        = flag.Int("k", 5, "number of diverse skyline points")
		algo     = flag.String("algo", "mh", "algorithm: mh, lsh, sg, bf")
		tSig     = flag.Int("t", 100, "MinHash signature size")
		useIdx   = flag.Bool("index", false, "use index-based fingerprinting (SigGen-IB)")
		workers  = flag.Int("workers", 1, "parallel fingerprinting workers (index-free mode; <0 = all CPUs)")
		shards   = flag.Int("shards", 0, "with -remote, the number of shards the workers serve (mh/lsh only; 0 = one per worker); without -remote it changes nothing")
		topk     = flag.Int("topk", 0, "also print the top-k dominating points")
		prefs    = flag.String("prefs", "", "comma-separated min/max per dimension (default all min)")
		seed     = flag.Int64("seed", 1, "random seed")
		verbose  = flag.Bool("verbose", false, "print cost accounting")
		timeout  = flag.Duration("timeout", 0, "deadline for the run; on expiry the best partial result found so far is printed (0 = none)")
		parallel = flag.Int("parallel", 1, "serve N identical queries concurrently and verify they agree (concurrent-serving check)")
		jsonOut  = flag.Bool("json", false, "emit the result as a JSON object instead of text")
		faults   = flag.String("faults", "", "inject page faults, e.g. rate=0.01,permanent=0.1,latency=1ms,seed=7 (see -help-faults semantics in README)")
		noCache  = flag.Bool("nocache", false, "bypass the per-dataset fingerprint cache (every query pays the full Phase-1 pass)")

		maxInFlight = flag.Int("maxinflight", 0, "admission control: at most N queries run concurrently; the rest queue or are shed with exit code 4 (0 = unlimited)")
		maxQueue    = flag.Int("maxqueue", 0, "admission control: up to N queries wait for a slot beyond -maxinflight before shedding (0 = shed immediately)")
		queueWait   = flag.Duration("queuewait", 0, "admission control: longest a queued query may wait before being shed (0 = wait indefinitely)")
		budgetSpec  = flag.String("budget", "", "per-query resource budget, e.g. pages=512,wall=50ms,est=1000000; exhaustion yields a partial result (exit code 3) or, with -shed, a degraded one")
		shed        = flag.Bool("shed", false, "degrade instead of failing when storage is sick or the -budget is spent: serve from a resident fingerprint, fall back to the index-free scan, or return the budget-bounded prefix (exit code 5)")
		breaker     = flag.Bool("breaker", false, "install the storage circuit breaker: a page store faulting above the trip ratio fails queries fast instead of burning retry backoff")

		remote = flag.String("remote", "", "comma-separated skyshardd worker base URLs: run Phase 1 on the fleet instead of in process (requires -gen; mh/lsh only)")

		storage = flag.String("storage", "sim", "index page store backend: sim (simulated, default) or file (mmap-backed temp file; identical simulated accounting)")
		saveIdx = flag.String("save-index", "", "after a successful run, persist the R*-tree plus a warm-start snapshot of its decoded-node cache to this file")
		loadIdx = flag.String("load-index", "", "open the index from a -save-index snapshot, skipping bulk load and the first-query decode storm")
		stream  = flag.Bool("stream", false, "bounded-memory streaming mode: never materialize the dataset (requires -gen or a binary -in file; mh/lsh only)")
		window  = flag.Int("window", 0, "skyline window size in points for -stream's external BNL (0 = default 1024)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags]\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), usageExitCodes)
	}
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the run; with -timeout the deadline does too.
	// Either way the run ends promptly with whatever prefix the greedy
	// selection had committed (anytime semantics).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	algorithm, err := parseAlgo(*algo)
	if err != nil {
		fail(err)
	}

	if *stream {
		if *useIdx || *shards > 1 || *remote != "" || *saveIdx != "" || *loadIdx != "" ||
			*topk > 0 || *faults != "" || *breaker || *maxInFlight > 0 || *parallel > 1 ||
			*budgetSpec != "" || *shed || strings.ToLower(*storage) == "file" {
			fail(errors.New("-stream supports only -gen/-in, -algo mh|lsh, -k, -t, -prefs, -seed, -window, -nocache, -timeout, -json and -verbose"))
		}
		os.Exit(runStream(ctx, *input, *gen, *n, *d, *prefs, *seed, skydiver.Options{
			K:             *k,
			Algorithm:     algorithm,
			SignatureSize: *tSig,
			Seed:          *seed,
			NoCache:       *noCache,
			StreamWindow:  *window,
		}, *jsonOut, *verbose))
	}

	ds, err := loadDataset(*input, *gen, *n, *d, *prefs, *seed)
	if err != nil {
		fail(err)
	}
	kind, err := parseStorage(*storage)
	if err != nil {
		fail(err)
	}
	if kind != skydiver.StorageSimulated {
		if err := ds.SetStorage(kind); err != nil {
			fail(err)
		}
	}
	if *loadIdx != "" {
		f, err := os.Open(*loadIdx)
		if err != nil {
			fail(err)
		}
		lerr := ds.LoadIndex(f)
		f.Close()
		if lerr != nil {
			fail(fmt.Errorf("-load-index %s: %w", *loadIdx, lerr))
		}
	}
	if *faults != "" {
		policy, err := skydiver.ParseFaultPolicy(*faults)
		if err != nil {
			fail(err)
		}
		if err := ds.InjectFaults(policy); err != nil {
			fail(err)
		}
	}
	if *breaker {
		if err := ds.SetBreakerPolicy(skydiver.DefaultBreakerPolicy()); err != nil {
			fail(err)
		}
	}
	if *maxInFlight > 0 {
		err := ds.SetAdmissionPolicy(skydiver.AdmissionPolicy{
			MaxInFlight: *maxInFlight,
			MaxQueue:    *maxQueue,
			QueueWait:   *queueWait,
		})
		if err != nil {
			fail(err)
		}
	}
	queryBudget, err := skydiver.ParseBudget(*budgetSpec)
	if err != nil {
		fail(err)
	}
	skySize := "?"
	m, err := ds.SkylineSize()
	if err != nil {
		// With -shed the query itself may still be served (the degradation
		// ladder recomputes the skyline in memory); without it, give up now.
		if !*shed {
			fail(err)
		}
	} else {
		skySize = strconv.Itoa(m)
	}
	if !*jsonOut {
		fmt.Printf("dataset %s: n=%d d=%d skyline=%s\n", ds.Name(), ds.Len(), ds.Dims(), skySize)
	}

	opts := skydiver.Options{
		K:             *k,
		Algorithm:     algorithm,
		SignatureSize: *tSig,
		UseIndex:      *useIdx,
		Workers:       *workers,
		Shards:        *shards,
		Seed:          *seed,
		NoCache:       *noCache,
		Budget:        queryBudget,
		AllowDegraded: *shed,
	}
	if *remote != "" {
		var fleet []string
		for _, w := range strings.Split(*remote, ",") {
			if w = strings.TrimSpace(w); w != "" {
				fleet = append(fleet, w)
			}
		}
		opts.Remote = &skydiver.RemoteOptions{Workers: fleet}
	}
	res, err := serve(ctx, ds, opts, *parallel)
	if err != nil && errors.Is(err, skydiver.ErrOverloaded) {
		if *jsonOut {
			printJSON(ds.Name(), ds.Len(), ds.Dims(), nil, *k, algorithm, err)
		} else {
			fmt.Fprintf(os.Stderr, "skydiver: %v\n", err)
		}
		os.Exit(exitOverloaded)
	}
	if err != nil && res == nil {
		fail(err)
	}
	if *parallel > 1 && err == nil && !*jsonOut {
		fmt.Printf("served %d concurrent queries; all results identical\n", *parallel)
	}
	// err != nil with a non-nil res means the deadline or a signal cut the
	// run short: res holds the valid diverse prefix selected so far.
	if *jsonOut {
		printJSON(ds.Name(), ds.Len(), ds.Dims(), res, *k, algorithm, err)
	} else {
		printText(ds, res, *k, algorithm, *verbose, err)
	}
	if *topk > 0 && err == nil && !*jsonOut {
		idx, scores, err := ds.TopKDominating(*topk)
		if err != nil {
			fail(err)
		}
		fmt.Printf("top-%d dominating points:\n", *topk)
		for r := range idx {
			fmt.Printf("  %2d. row %-8d |Γ|=%-7d %v\n", r+1, idx[r], scores[r], ds.Point(idx[r]))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skydiver: %v\n", err)
		os.Exit(exitPartial)
	}
	if *saveIdx != "" {
		if werr := writeSnapshot(ds, *saveIdx); werr != nil {
			fail(fmt.Errorf("-save-index %s: %w", *saveIdx, werr))
		}
		if *verbose && !*jsonOut {
			fmt.Printf("index snapshot written to %s\n", *saveIdx)
		}
	}
	if res.Degraded {
		os.Exit(exitDegraded)
	}
}

// writeSnapshot persists ds's index (building it first if no query has) to
// path via a temp file and rename, so a crash mid-write never leaves a
// truncated snapshot behind.
func writeSnapshot(ds *skydiver.Dataset, path string) error {
	tmp, err := os.CreateTemp(filepathDir(path), ".skydiver-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := ds.SaveIndex(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// filepathDir is filepath.Dir without importing path/filepath for one call.
func filepathDir(path string) string {
	if i := strings.LastIndexByte(path, os.PathSeparator); i > 0 {
		return path[:i]
	}
	return "."
}

// runStream is the -stream entry point: build a row source from -gen or a
// binary -in file, run the bounded-memory pipeline, print, and return the
// process exit code. No Dataset ever exists, so the per-row annotations of
// the materialized path (domination scores, exact diversity) are absent.
func runStream(ctx context.Context, input, gen string, n, d int, prefSpec string, seed int64, opts skydiver.Options, jsonOut, verbose bool) int {
	var src skydiver.RowSource
	switch {
	case input != "" && gen != "":
		fail(errors.New("-in and -gen are mutually exclusive"))
	case gen != "":
		dist, err := parseDist(gen)
		if err != nil {
			fail(err)
		}
		s, err := skydiver.GenerateSource(dist, n, d, seed)
		if err != nil {
			fail(err)
		}
		src = s
	case input != "":
		if !isBinaryDataset(input) {
			fail(fmt.Errorf("-stream needs a binary dataset: use -gen, or a file written by datagen -out"))
		}
		fs, err := skydiver.OpenDatasetSource(input)
		if err != nil {
			fail(err)
		}
		defer fs.Close()
		src = fs
	default:
		fail(errors.New("either -in or -gen is required"))
	}
	prefs, err := parsePrefs(prefSpec, src.Dims())
	if err != nil {
		fail(err)
	}
	if !jsonOut {
		fmt.Printf("dataset %s: n=%d d=%d (streamed)\n", src.Name(), src.Len(), src.Dims())
	}
	res, runErr := skydiver.DiversifyStreamContext(ctx, src, prefs, opts)
	if runErr != nil && res == nil {
		fail(runErr)
	}
	if jsonOut {
		printJSON(src.Name(), src.Len(), src.Dims(), res, opts.K, opts.Algorithm, runErr)
	} else {
		if res.Partial {
			fmt.Printf("PARTIAL result (%d of %d requested) — run interrupted: %v\n", len(res.Indexes), opts.K, runErr)
		}
		fmt.Printf("%d most diverse skyline points (%s, streamed):\n", len(res.Indexes), opts.Algorithm)
		for rank, idx := range res.Indexes {
			fmt.Printf("  %2d. row %-8d %v\n", rank+1, idx, res.Points[rank])
		}
		if verbose {
			fmt.Printf("cpu=%v io=%v faults=%d memory=%dB objective=%.4f\n",
				res.CPUTime, res.IOTime, res.PageFaults, res.MemoryBytes, res.ObjectiveValue)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "skydiver: %v\n", runErr)
		return exitPartial
	}
	return exitOK
}

func parseStorage(s string) (skydiver.StorageKind, error) {
	switch strings.ToLower(s) {
	case "", "sim":
		return skydiver.StorageSimulated, nil
	case "file":
		return skydiver.StorageFile, nil
	default:
		return 0, fmt.Errorf("unknown storage backend %q (want sim or file)", s)
	}
}

// serve runs n identical queries concurrently against ds and verifies they
// return the same answer — the CLI surface of the library's concurrent
// query-serving guarantee. With n <= 1 it is a plain DiversifyContext call.
// The first replica's result is returned; a disagreement is an error.
func serve(ctx context.Context, ds *skydiver.Dataset, opts skydiver.Options, n int) (*skydiver.Result, error) {
	if n <= 1 {
		return ds.DiversifyContext(ctx, opts)
	}
	results := make([]*skydiver.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = ds.DiversifyContext(ctx, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return results[i], errs[i]
		}
	}
	for i := 1; i < n; i++ {
		if !sameResult(results[0], results[i]) {
			return nil, fmt.Errorf("parallel queries disagree: replica %d selected %v, replica 0 selected %v",
				i, results[i].Indexes, results[0].Indexes)
		}
	}
	return results[0], nil
}

// sameResult reports whether two replicas returned the same selection and
// objective.
func sameResult(a, b *skydiver.Result) bool {
	if a.ObjectiveValue != b.ObjectiveValue || len(a.Indexes) != len(b.Indexes) {
		return false
	}
	for i := range a.Indexes {
		if a.Indexes[i] != b.Indexes[i] {
			return false
		}
	}
	return true
}

func printText(ds *skydiver.Dataset, res *skydiver.Result, k int, algorithm skydiver.Algorithm, verbose bool, runErr error) {
	if res.Partial {
		fmt.Printf("PARTIAL result (%d of %d requested) — run interrupted: %v\n", len(res.Indexes), k, runErr)
	}
	if res.Degraded {
		fmt.Printf("DEGRADED result (%s)\n", res.DegradedReason)
	}
	fmt.Printf("%d most diverse skyline points (%s):\n", len(res.Indexes), algorithm)
	for rank, idx := range res.Indexes {
		// The annotations below re-read the dataset; under an open circuit
		// breaker or a spent budget they can fail even though the result is
		// valid, so degrade them to "?" instead of aborting.
		scoreStr := "?"
		if score, err := ds.DominationScore(idx); err == nil {
			scoreStr = strconv.Itoa(score)
		}
		fmt.Printf("  %2d. row %-8d |Γ|=%-7s %v\n", rank+1, idx, scoreStr, res.Points[rank])
	}
	if len(res.Indexes) > 1 {
		if div, err := ds.ExactDiversity(res.Indexes); err == nil {
			fmt.Printf("exact diversity (min pairwise Jaccard distance): %.4f\n", div)
		} else {
			fmt.Println("exact diversity: unavailable (storage unreadable)")
		}
	}
	if res.Remote != nil {
		rs := res.Remote
		fmt.Printf("remote shards: %d/%d served by the fleet (%d local, %d missing), retries=%d hedges=%d failovers=%d\n",
			rs.Remote, rs.Shards, rs.Local, len(rs.Missing), rs.Retries, rs.Hedges, rs.Failovers)
	}
	if verbose {
		injected, retries := ds.FaultStats()
		fmt.Printf("cpu=%v io=%v faults=%d memory=%dB objective=%.4f injected=%d retries=%d\n",
			res.CPUTime, res.IOTime, res.PageFaults, res.MemoryBytes, res.ObjectiveValue, injected, retries)
	}
}

// jsonResult is the machine-readable output shape for -json.
type jsonResult struct {
	Dataset   string      `json:"dataset"`
	N         int         `json:"n"`
	D         int         `json:"d"`
	Algorithm string      `json:"algorithm"`
	K         int         `json:"k"`
	Partial   bool        `json:"partial"`
	Degraded  bool        `json:"degraded"`
	Reason    string      `json:"degraded_reason,omitempty"`
	Shed      bool        `json:"shed,omitempty"`
	Error     string      `json:"error,omitempty"`
	Indexes   []int       `json:"indexes"`
	Points    [][]float64 `json:"points"`
	Objective float64     `json:"objective"`
	CPU       float64     `json:"cpu_seconds"`
	IO        float64     `json:"io_seconds"`
	Faults    int64       `json:"page_faults"`

	Remote *skydiver.RemoteShardStats `json:"remote,omitempty"`
}

// printJSON emits the machine-readable result. res may be nil when admission
// control shed the query before any work ran.
func printJSON(name string, n, d int, res *skydiver.Result, k int, algorithm skydiver.Algorithm, runErr error) {
	out := jsonResult{
		Dataset:   name,
		N:         n,
		D:         d,
		Algorithm: algorithm.String(),
		K:         k,
	}
	if res != nil {
		out.Partial = res.Partial
		out.Degraded = res.Degraded
		out.Reason = res.DegradedReason
		out.Indexes = res.Indexes
		out.Points = res.Points
		out.Objective = res.ObjectiveValue
		out.CPU = res.CPUTime.Seconds()
		out.IO = res.IOTime.Seconds()
		out.Faults = res.PageFaults
		out.Remote = res.Remote
	}
	if runErr != nil && errors.Is(runErr, skydiver.ErrOverloaded) {
		out.Shed = true
	}
	if out.Indexes == nil {
		out.Indexes = []int{}
	}
	if out.Points == nil {
		out.Points = [][]float64{}
	}
	if runErr != nil {
		out.Error = runErr.Error()
		if errors.Is(runErr, skydiver.ErrDeadlineExceeded) {
			out.Error = "deadline exceeded"
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func parseAlgo(s string) (skydiver.Algorithm, error) {
	switch strings.ToLower(s) {
	case "mh", "minhash":
		return skydiver.MinHash, nil
	case "lsh":
		return skydiver.LSH, nil
	case "sg", "greedy":
		return skydiver.Greedy, nil
	case "bf", "exact":
		return skydiver.Exact, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want mh, lsh, sg or bf)", s)
	}
}

func parseDist(s string) (skydiver.Distribution, error) {
	switch strings.ToLower(s) {
	case "ind":
		return skydiver.Independent, nil
	case "ant":
		return skydiver.Anticorrelated, nil
	case "corr":
		return skydiver.Correlated, nil
	case "fc":
		return skydiver.ForestCover, nil
	case "rec":
		return skydiver.Recipes, nil
	default:
		return 0, fmt.Errorf("unknown generator %q (want ind, ant, corr, fc or rec)", s)
	}
}

func parsePrefs(s string, dims int) ([]skydiver.Pref, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("-prefs has %d entries, dataset has %d dimensions", len(parts), dims)
	}
	out := make([]skydiver.Pref, dims)
	for i, p := range parts {
		switch strings.TrimSpace(strings.ToLower(p)) {
		case "min":
			out[i] = skydiver.Min
		case "max":
			out[i] = skydiver.Max
		default:
			return nil, fmt.Errorf("invalid preference %q (want min or max)", p)
		}
	}
	return out, nil
}

func loadDataset(input, gen string, n, d int, prefSpec string, seed int64) (*skydiver.Dataset, error) {
	switch {
	case input != "" && gen != "":
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	case gen != "":
		dist, err := parseDist(gen)
		if err != nil {
			return nil, err
		}
		return skydiver.Generate(dist, n, d, seed)
	case input != "":
		if isBinaryDataset(input) {
			f, err := os.Open(input)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			ds, err := skydiver.LoadDataset(f, nil)
			if err != nil {
				return nil, err
			}
			if prefSpec == "" {
				return ds, nil
			}
			// Re-wrap with explicit preferences.
			prefs, err := parsePrefs(prefSpec, ds.Dims())
			if err != nil {
				return nil, err
			}
			rows := make([][]float64, ds.Len())
			for i := range rows {
				rows[i] = ds.Point(i)
			}
			return skydiver.NewDataset(input, rows, prefs)
		}
		rows, err := readCSV(input)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%s: no numeric rows", input)
		}
		prefs, err := parsePrefs(prefSpec, len(rows[0]))
		if err != nil {
			return nil, err
		}
		return skydiver.NewDataset(input, rows, prefs)
	default:
		return nil, fmt.Errorf("either -in or -gen is required")
	}
}

// isBinaryDataset sniffs the 4-byte magic of the repository's binary
// dataset format ("SKYD" little-endian).
func isBinaryDataset(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	magic := make([]byte, 4)
	if _, err := f.Read(magic); err != nil {
		return false
	}
	return magic[0] == 0x44 && magic[1] == 0x59 && magic[2] == 0x4b && magic[3] == 0x53
}

// readCSV reads numeric rows, skipping a header line if the first field is
// not parseable as a number.
func readCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		row := make([]float64, len(parts))
		ok := true
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				ok = false
				break
			}
			row[i] = v
		}
		if !ok {
			if lineNo == 1 {
				continue // header
			}
			return nil, fmt.Errorf("%s:%d: non-numeric row", path, lineNo)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "skydiver: %v\n", err)
	os.Exit(1)
}
