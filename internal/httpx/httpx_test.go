package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeLifecycle runs the daemon lifecycle in process: Serve listens on
// 127.0.0.1:0, prints a startup line naming the address it bound, serves a
// request, and on stop drains and returns the exit code: 0 after a clean
// drain, 3 when the drain reports work left in flight.
func TestServeLifecycle(t *testing.T) {
	pong := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "pong") })
	for _, c := range []struct {
		drainErr error
		want     int
	}{{nil, 0}, {errors.New("2 requests still in flight"), 3}} {
		ctx, stop := context.WithCancel(context.Background())
		out, startup := io.Pipe()
		bound := make(chan net.Addr, 1)
		drained := false
		code := make(chan int, 1)
		go func() {
			code <- Serve(ctx, "testd", "127.0.0.1:0", pong, startup, func(a net.Addr) { bound <- a }, time.Second,
				func(context.Context) error { drained = true; return c.drainErr })
		}()
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		addr := <-bound
		if want := fmt.Sprintf("testd listening on %s\n", addr); line != want {
			t.Errorf("startup line %q, want %q", line, want)
		}
		resp, err := http.Get("http://" + addr.String() + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "pong" {
			t.Errorf("GET: body %q, err %v", body, err)
		}
		stop()
		if got := <-code; got != c.want || !drained {
			t.Errorf("drain error %v: exit code %d, drained %v; want %d after a drain", c.drainErr, got, drained, c.want)
		}
	}
}

// TestServeBadAddress: an address Serve cannot listen on exits 1 before
// anything starts.
func TestServeBadAddress(t *testing.T) {
	started := false
	code := Serve(context.Background(), "testd", "127.0.0.1:99999", http.NotFoundHandler(), io.Discard,
		func(net.Addr) { started = true }, time.Second, func(context.Context) error { started = true; return nil })
	if code != 1 || started {
		t.Errorf("exit code %d, started %v; want 1 and nothing started", code, started)
	}
}
