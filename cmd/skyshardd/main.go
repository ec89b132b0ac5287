// Command skyshardd is the shard worker daemon: an HTTP/JSON service that
// regenerates datasets from wire specs and folds one shard, a page range of
// rows, per request against the skyline a remote coordinator sends. All
// worker logic lives in internal/cluster; this binary only parses flags,
// binds the listener and wires signals.
//
// Endpoints: POST /shard/sigfold, POST /faults, GET /healthz, GET /stats.
//
// Exit codes: 0 clean start and drain, 1 startup or serve failure, 2 bad
// flags, 3 drain deadline passed with shard work still in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skydiver/internal/admission"
	"skydiver/internal/cluster"
	"skydiver/internal/httpx"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address (host:port, port 0 picks a free one)")
		maxInFl    = flag.Int("maxinflight", 0, "admission: max concurrent shard requests (0 = unlimited)")
		maxQ       = flag.Int("maxqueue", 0, "admission: queue depth beyond maxinflight")
		queueW     = flag.Duration("queuewait", 0, "admission: max time a shard request may queue")
		defTimeout = flag.Duration("timeout", 30*time.Second, "default deadline for requests without ?timeout=")
		maxTimeout = flag.Duration("maxtimeout", 2*time.Minute, "ceiling for per-request ?timeout= deadlines")
		retryAfter = flag.Duration("retry-after", 50*time.Millisecond, "backoff hint on 429/503 responses")
		maxN       = flag.Int("maxn", 2_000_000, "largest dataset cardinality a spec may request")
		faults     = flag.String("faults", "", "install this wire-fault policy at startup, e.g. drop=0.1,delay=20ms,seed=7")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
	)
	flag.Parse()
	os.Exit(run(*addr, *maxInFl, *maxQ, *queueW, *defTimeout, *maxTimeout, *retryAfter, *maxN, *faults, *drain))
}

func run(addr string, maxInFl, maxQ int, queueW, defTimeout, maxTimeout, retryAfter time.Duration, maxN int, faults string, drain time.Duration) int {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("skyshardd: ")

	faultPolicy, err := cluster.ParseWireFaultPolicy(faults)
	if err != nil {
		log.Printf("-faults: %v", err)
		return 2
	}
	cfg := cluster.WorkerConfig{
		DefaultTimeout: defTimeout,
		MaxTimeout:     maxTimeout,
		RetryAfter:     retryAfter,
		MaxDatasetN:    maxN,
		Faults:         faultPolicy,
		Logf:           log.Printf,
	}
	if maxInFl > 0 {
		cfg.Admission = admission.Policy{MaxInFlight: maxInFl, MaxQueue: maxQ, QueueWait: queueW}
	}
	worker, err := cluster.NewWorker(cfg)
	if err != nil {
		log.Print(err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	up := func(a net.Addr) { log.Printf("worker up on %s (maxn=%d, faults=%q)", a, maxN, faultPolicy.String()) }
	return httpx.Serve(ctx, "skyshardd", addr, worker.Handler(), os.Stdout, up, drain, func(ctx context.Context) error {
		if left := worker.Drain(ctx); left > 0 {
			return fmt.Errorf("%d shard requests still in flight", left)
		}
		return nil
	})
}
