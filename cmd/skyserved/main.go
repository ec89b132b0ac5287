// Command skyserved is the skydiver serving daemon: an HTTP/JSON front end
// over the library's diversification engine with lifecycle-managed datasets,
// per-tenant admission, deadline propagation, panic recovery, and graceful
// drain on SIGTERM/SIGINT. All serving logic lives in internal/server; this
// binary only parses flags, opens the seed dataset, and wires signals.
//
// Endpoints: GET /query, GET|POST /datasets, DELETE /datasets/{name},
// POST /datasets/{name}/points (insert one point, maintained incrementally),
// DELETE /datasets/{name}/points/{row} (tombstone one row),
// PUT /datasets/{name}/snapshot (with -snapshots: persist the index for
// warm-started reopens via POST /datasets?snapshot=1),
// GET /healthz, GET /readyz, GET /stats, and (with -chaos) GET /boom plus
// POST /datasets/{name}/faults.
//
// Exit codes: 0 clean start and drain, 1 startup or serve failure, 2 bad
// flags, 3 drain deadline passed with queries still in flight.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skydiver"
	"skydiver/internal/httpx"
	"skydiver/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (host:port, port 0 picks a free one)")
		name    = flag.String("name", "default", "name of the seed dataset")
		gen     = flag.String("gen", "ant", "seed dataset generator: ind, ant, corr, fc or rec")
		n       = flag.Int("n", 20000, "seed dataset cardinality")
		d       = flag.Int("d", 4, "seed dataset dimensionality")
		seed    = flag.Int64("seed", 1, "seed dataset RNG seed")
		maxInFl = flag.Int("maxinflight", 0, "per-dataset admission: max concurrent queries (0 = unlimited)")
		maxQ    = flag.Int("maxqueue", 0, "per-dataset admission: queue depth beyond maxinflight")
		queueW  = flag.Duration("queuewait", 0, "per-dataset admission: max time a query may queue")
		breaker = flag.Bool("breaker", true, "arm the storage circuit breaker on the seed dataset")

		tenantInFl = flag.Int("tenant-maxinflight", 0, "per-tenant admission: max concurrent queries (0 = disabled)")
		tenantQ    = flag.Int("tenant-maxqueue", 0, "per-tenant admission: queue depth")
		tenantW    = flag.Duration("tenant-queuewait", 0, "per-tenant admission: max queue wait")

		budget     = flag.String("budget", "", "default query budget, e.g. pages=4096,cpu=100ms (empty = unlimited)")
		maxTimeout = flag.Duration("maxtimeout", 30*time.Second, "ceiling for per-request ?timeout= deadlines")
		defTimeout = flag.Duration("timeout", 0, "default deadline for requests without ?timeout= (0 = none)")
		retryAfter = flag.Duration("retry-after", time.Second, "backoff hint on 429/503 responses")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		chaos      = flag.Bool("chaos", false, "enable fault-injection endpoints (/boom, /datasets/{name}/faults)")
		faults     = flag.String("faults", "", "install this fault policy on the seed dataset at startup")
		shardFleet = flag.String("shard-workers", "", "comma-separated skyshardd base URLs enabling ?remote=1 queries")
		snapshots  = flag.String("snapshots", "", "directory for warm-start index snapshots, enabling PUT /datasets/{name}/snapshot and POST /datasets?snapshot=1 (empty = disabled)")
	)
	flag.Parse()

	os.Exit(run(runConfig{
		addr: *addr, name: *name, gen: *gen, n: *n, d: *d, seed: *seed,
		maxInFlight: *maxInFl, maxQueue: *maxQ, queueWait: *queueW, breaker: *breaker,
		tenantInFlight: *tenantInFl, tenantQueue: *tenantQ, tenantWait: *tenantW,
		budget: *budget, maxTimeout: *maxTimeout, defTimeout: *defTimeout,
		retryAfter: *retryAfter, drain: *drain, chaos: *chaos, faults: *faults,
		shardWorkers: *shardFleet, snapshots: *snapshots,
	}))
}

type runConfig struct {
	addr, name, gen             string
	n, d                        int
	seed                        int64
	maxInFlight, maxQueue       int
	queueWait                   time.Duration
	breaker                     bool
	tenantInFlight, tenantQueue int
	tenantWait                  time.Duration
	budget                      string
	maxTimeout, defTimeout      time.Duration
	retryAfter, drain           time.Duration
	chaos                       bool
	faults                      string
	shardWorkers                string
	snapshots                   string
}

// splitWorkers turns the -shard-workers flag into a URL list, dropping empty
// segments so trailing commas are harmless.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func run(rc runConfig) int {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("skyserved: ")

	dist, err := skydiver.ParseDistribution(rc.gen)
	if err != nil {
		log.Printf("-gen: %v", err)
		return 2
	}
	var defBudget skydiver.Budget
	if rc.budget != "" {
		defBudget, err = skydiver.ParseBudget(rc.budget)
		if err != nil {
			log.Printf("-budget: %v", err)
			return 2
		}
	}

	ds, err := skydiver.Generate(dist, rc.n, rc.d, rc.seed)
	if err != nil {
		log.Printf("generating seed dataset: %v", err)
		return 1
	}
	if rc.maxInFlight > 0 {
		if err := ds.SetAdmissionPolicy(skydiver.AdmissionPolicy{
			MaxInFlight: rc.maxInFlight, MaxQueue: rc.maxQueue, QueueWait: rc.queueWait,
		}); err != nil {
			log.Printf("-maxinflight: %v", err)
			return 2
		}
	}
	if rc.breaker {
		if err := ds.SetBreakerPolicy(skydiver.DefaultBreakerPolicy()); err != nil {
			log.Printf("arming breaker: %v", err)
			return 1
		}
	}
	if rc.faults != "" {
		policy, err := skydiver.ParseFaultPolicy(rc.faults)
		if err != nil {
			log.Printf("-faults: %v", err)
			return 2
		}
		if err := ds.InjectFaults(policy); err != nil {
			log.Printf("-faults: %v", err)
			return 1
		}
	}

	reg := server.NewRegistry()
	if err := reg.Open(rc.name, ds); err != nil {
		log.Printf("registering %q: %v", rc.name, err)
		return 1
	}

	var tenantPolicy skydiver.AdmissionPolicy
	if rc.tenantInFlight > 0 {
		tenantPolicy = skydiver.AdmissionPolicy{
			MaxInFlight: rc.tenantInFlight, MaxQueue: rc.tenantQueue, QueueWait: rc.tenantWait,
		}
	}
	srv, err := server.New(server.Config{
		Registry:       reg,
		MaxTimeout:     rc.maxTimeout,
		DefaultTimeout: rc.defTimeout,
		TenantPolicy:   tenantPolicy,
		DefaultBudget:  defBudget,
		RetryAfter:     rc.retryAfter,
		Chaos:          rc.chaos,
		ShardWorkers:   splitWorkers(rc.shardWorkers),
		SnapshotDir:    rc.snapshots,
	})
	if err != nil {
		log.Print(err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	up := func(a net.Addr) {
		log.Printf("serving %q (n=%d d=%d gen=%s) on %s chaos=%v", rc.name, ds.Len(), ds.Dims(), rc.gen, a, rc.chaos)
	}
	// The drain flips unready and sheds new queries at once, lets in-flight
	// ones finish and closes every dataset; then the listener stops.
	return httpx.Serve(ctx, "skyserved", rc.addr, srv.Handler(), os.Stdout, up, rc.drain, srv.Drain)
}
