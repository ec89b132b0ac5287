// middleware.go is the serving tier's robustness stack: the response-class
// taxonomy that maps the library's error sentinels onto HTTP statuses
// (mirroring the CLI's exit codes), panic recovery that turns a handler
// panic into a 500 without killing the process, per-request deadline
// propagation from ?timeout= into the library's context polls, per-tenant
// admission, and the drain gate that sheds new work during shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"skydiver"
	"skydiver/internal/admission"
	"skydiver/internal/httpx"
)

// Response classes. Every response the server writes is counted under
// exactly one of these, so /stats reconciles 1:1 with what clients observe.
// The HTTP taxonomy mirrors the CLI exit codes: 0→full, 3→partial,
// 4→shed(429), 5→degraded, 1→internal/unavailable, 2→bad-request.
const (
	ClassFull        = "full"        // 200, complete result
	ClassPartial     = "partial"     // 200, valid anytime prefix + reason
	ClassDegraded    = "degraded"    // 200, degradation-ladder answer + reason
	ClassShed        = "shed"        // 429 + Retry-After, no work done
	ClassUnavailable = "unavailable" // 503 + Retry-After (breaker open, storage sick, draining)
	ClassNotFound    = "not_found"   // 404, unknown dataset or route
	ClassBadRequest  = "bad_request" // 400, malformed parameters
	ClassConflict    = "conflict"    // 409, dataset already exists
	ClassInternal    = "internal"    // 500, bug or unclassified failure
	ClassPanic       = "panic"       // 500, handler panic converted by recovery
	ClassCancelled   = "cancelled"   // client went away mid-query; nothing deliverable
)

// errorBody is the JSON shape of every non-200 response.
type errorBody struct {
	Error        string `json:"error"`
	Class        string `json:"error_class"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// classify maps an error from the query path to its HTTP status and response
// class. The mapping is the server-side twin of the CLI exit-code taxonomy.
func classify(err error) (status int, class string) {
	switch {
	case errors.Is(err, skydiver.ErrOverloaded):
		return http.StatusTooManyRequests, ClassShed
	case errors.Is(err, ErrUnknownDataset), errors.Is(err, skydiver.ErrNoSuchPoint):
		return http.StatusNotFound, ClassNotFound
	case errors.Is(err, ErrDatasetExists):
		return http.StatusConflict, ClassConflict
	case errors.Is(err, ErrDatasetDraining), errors.Is(err, ErrRegistryClosed),
		errors.Is(err, skydiver.ErrDatasetClosed),
		errors.Is(err, skydiver.ErrCircuitOpen),
		errors.Is(err, skydiver.ErrTransientFault),
		errors.Is(err, skydiver.ErrPermanentFault):
		return http.StatusServiceUnavailable, ClassUnavailable
	case errors.Is(err, skydiver.ErrInvalidOptions):
		return http.StatusBadRequest, ClassBadRequest
	default:
		return http.StatusInternalServerError, ClassInternal
	}
}

// counters tallies responses by class. All methods are safe for concurrent
// use.
type counters struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCounters() *counters { return &counters{m: make(map[string]int64)} }

func (c *counters) inc(class string) {
	c.mu.Lock()
	c.m[class]++
	c.mu.Unlock()
}

func (c *counters) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// recoverPanics converts a handler panic into a 500 response (when the
// header has not been sent yet) and keeps the process alive. The panic
// count is surfaced in /stats; the stack goes to the server's logger. The
// mechanics live in httpx.Recover, shared with the cluster shard worker.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return httpx.Recover(next, httpx.RecoverOptions{
		Logf: s.logf,
		OnPanic: func(any) {
			s.panics.Add(1)
			s.responses.inc(ClassPanic)
		},
		Body: func(p any) any {
			return errorBody{Error: fmt.Sprintf("internal error: %v", p), Class: ClassPanic}
		},
	})
}

// requestContext derives the query context: the request's own context (which
// the net/http server cancels on client disconnect) plus an optional
// ?timeout= deadline, clamped to the server's MaxTimeout ceiling. The
// returned cancel must always be called.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx, cancel, err := httpx.Timeout(r, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s", skydiver.ErrInvalidOptions, err)
	}
	return ctx, cancel, nil
}

// tenantTable lazily builds one admission limiter per tenant from a shared
// policy template — the per-tenant layer above each dataset's own admission
// control. A zero template disables the layer.
type tenantTable struct {
	mu       sync.Mutex
	policy   admission.Policy
	limiters map[string]*admission.Limiter
}

func newTenantTable(p admission.Policy) *tenantTable {
	return &tenantTable{policy: p, limiters: make(map[string]*admission.Limiter)}
}

// enabled reports whether per-tenant admission is configured.
func (t *tenantTable) enabled() bool { return t.policy != (admission.Policy{}) }

// limiter returns (creating if needed) the named tenant's limiter, or nil
// when the layer is disabled.
func (t *tenantTable) limiter(tenant string) *admission.Limiter {
	if !t.enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lim, ok := t.limiters[tenant]
	if !ok {
		lim, _ = admission.New(t.policy) // policy validated at server construction
		t.limiters[tenant] = lim
	}
	return lim
}

// snapshot returns per-tenant admission stats.
func (t *tenantTable) snapshot() map[string]admission.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]admission.Stats, len(t.limiters))
	for name, lim := range t.limiters {
		out[name] = lim.Stats()
	}
	return out
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	httpx.WriteJSON(w, status, body)
}

// writeError writes the taxonomy-mapped error response and counts its class.
// 429 and 503 carry a Retry-After header so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, class := classify(err)
	body := errorBody{Error: err.Error(), Class: class}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ra := s.cfg.RetryAfter
		w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
		body.RetryAfterMS = ra.Milliseconds()
	}
	s.responses.inc(class)
	writeJSON(w, status, body)
}
