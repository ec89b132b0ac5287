// Package httpx holds the HTTP middleware shared by the serving tier
// (internal/server) and the cluster shard worker (internal/cluster): panic
// recovery, request-deadline derivation from ?timeout=, the drain gate used
// for graceful shutdown, JSON response writing, and the daemon lifecycle of
// cmd/skyserved and cmd/skyshardd (Serve). It sits below both
// packages so the worker daemon reuses the server's robustness stack without
// importing the full serving tier (which would cycle through the root
// package).
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// StatusRecorder remembers whether (and with what status) a handler already
// wrote, so panic recovery knows if a clean 500 is still possible and
// response-class accounting can verify a class was assigned.
type StatusRecorder struct {
	http.ResponseWriter
	// Code is the first status written (OK for an implicit header).
	Code int
	// Written reports whether the header has been sent.
	Written bool
}

// WriteHeader records the first status and forwards.
func (w *StatusRecorder) WriteHeader(status int) {
	if !w.Written {
		w.Code = status
		w.Written = true
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write records an implicit 200 on first write and forwards.
func (w *StatusRecorder) Write(b []byte) (int, error) {
	if !w.Written {
		w.Code = http.StatusOK
		w.Written = true
	}
	return w.ResponseWriter.Write(b)
}

// RecoverOptions configures the Recover middleware. All hooks may be nil.
type RecoverOptions struct {
	// Logf receives the panic value and stack; nil discards them.
	Logf func(format string, args ...any)
	// OnPanic is the accounting hook, called once per recovered panic.
	OnPanic func(p any)
	// Body builds the JSON error body for the clean 500 written when the
	// handler had not sent a header yet. Nil uses a plain {"error": ...}.
	Body func(p any) any
}

// Recover converts a handler panic into a 500 response (when the header has
// not been sent yet) and keeps the process alive. http.ErrAbortHandler is
// re-panicked so deliberate connection aborts — including injected "drop"
// wire faults — still sever the connection instead of turning into a 500.
func Recover(next http.Handler, o RecoverOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &StatusRecorder{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if o.OnPanic != nil {
				o.OnPanic(p)
			}
			if o.Logf != nil {
				o.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			}
			if !rec.Written {
				body := any(map[string]string{"error": fmt.Sprintf("internal error: %v", p)})
				if o.Body != nil {
					body = o.Body(p)
				}
				WriteJSON(rec, http.StatusInternalServerError, body)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// Timeout derives a request's query context: the request's own context
// (which the net/http server cancels on client disconnect) plus an optional
// ?timeout= deadline defaulting to def, clamped to the max ceiling (0 = no
// ceiling). The returned cancel must always be called.
func Timeout(r *http.Request, def, max time.Duration) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	d := def
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return nil, nil, fmt.Errorf("timeout %q, want a positive duration", raw)
		}
		d = parsed
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(ctx, d)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	return ctx, cancel, nil
}

// DrainGate sheds new requests once draining starts and lets shutdown wait
// for the in-flight ones. A plain sync.WaitGroup would race Add against
// Wait; the gate serializes admission and drain under one lock. The zero
// value is ready to use.
type DrainGate struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{} // created on drain, closed when n reaches 0
}

// Enter admits a request (true) or reports that the owner is draining
// (false). Every successful Enter must be paired with Exit.
func (g *DrainGate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

// Exit marks one admitted request finished.
func (g *DrainGate) Exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

// BeginDrain flips the gate; subsequent Enters fail. Idempotent.
func (g *DrainGate) BeginDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.draining {
		g.draining = true
		if g.n > 0 {
			g.idle = make(chan struct{})
		}
	}
}

// Wait blocks until every in-flight request has exited or ctx expires. It
// returns the number of requests still in flight (0 on a clean drain).
func (g *DrainGate) Wait(ctx context.Context) int {
	g.mu.Lock()
	idle := g.idle
	n := g.n
	g.mu.Unlock()
	if n == 0 || idle == nil {
		return 0
	}
	select {
	case <-idle:
		return 0
	case <-ctx.Done():
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.n
	}
}

// IsDraining reports the gate state.
func (g *DrainGate) IsDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Serve runs the lifecycle both daemons share. It listens on addr, prints
// the parseable startup line "<name> listening on <addr>" to out (the bound
// address, so port 0 names the port it picked), calls up with that address
// for the daemon's own startup log, and serves h until ctx ends. It then
// drains within deadline: drain sheds new work and waits for the work in
// flight, and the HTTP server shuts down. Serve returns the
// daemon's exit code: 1 when listening or serving fails, 3 when drain
// reports work still in flight, and 0 after a clean drain. It logs through
// the standard logger.
func Serve(ctx context.Context, name, addr string, h http.Handler, out io.Writer, up func(net.Addr),
	deadline time.Duration, drain func(context.Context) error) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("listen %s: %v", addr, err)
		return 1
	}
	fmt.Fprintf(out, "%s listening on %s\n", name, ln.Addr())
	up(ln.Addr())

	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
		log.Printf("stopping, draining (deadline %v)", deadline)
	}

	dctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	drainErr := drain(dctx)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("drain: %v", drainErr)
		return 3
	}
	log.Print("drained cleanly")
	return 0
}

// WriteJSON writes an indented JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
