package main

// Regression tests for the graceful-shutdown ordering and the
// proxy-mode Retry-After hint.

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"hypersort"
	"hypersort/internal/obs"
)

// hintingBackend is a handler backend with a fixed QueueWaitHint — the
// shape of the multi-process proxy, whose shards report queue wait over
// the wire while the local histogram stays empty.
type hintingBackend struct{ hint int64 }

func (b *hintingBackend) SortBatchContext(ctx context.Context, reqs []hypersort.Request) []hypersort.Result {
	return make([]hypersort.Result, len(reqs))
}
func (b *hintingBackend) InjectFault(hypersort.Config, ...hypersort.Injection) error { return nil }
func (b *hintingBackend) DisarmFaults(hypersort.Config) error                        { return nil }
func (b *hintingBackend) Metrics() hypersort.EngineMetrics                           { return hypersort.EngineMetrics{} }
func (b *hintingBackend) ClusterMetrics() (hypersort.ClusterMetrics, bool) {
	return hypersort.ClusterMetrics{}, false
}
func (b *hintingBackend) QueueWaitHint() int64 { return b.hint }

// TestRetryAfterConsultsProxyHint pins the proxy-mode half of the
// Retry-After contract: when the backend reports a remote queue wait
// worse than the local histogram's p50, the hint follows the remote
// figure (ceiled to whole seconds); when the remote figure is smaller,
// the local histogram still wins.
func TestRetryAfterConsultsProxyHint(t *testing.T) {
	empty := &obs.Histogram{}
	if got := retryAfterSeconds(empty, &hintingBackend{hint: int64(2500 * time.Millisecond)}); got != 3 {
		t.Fatalf("remote hint 2.5s over empty histogram: Retry-After = %d, want 3", got)
	}
	if got := retryAfterSeconds(empty, &hintingBackend{hint: 0}); got != 1 {
		t.Fatalf("zero hint must keep the 1s floor, got %d", got)
	}
	local := &obs.Histogram{}
	local.Observe(int64(1 << 36)) // ~69s local p50, capped at 30
	if got := retryAfterSeconds(local, &hintingBackend{hint: int64(time.Second)}); got != 30 {
		t.Fatalf("worse local histogram must win over a mild hint, got %d", got)
	}
}

// TestServeUntilDrainsBeforeBackendClose pins the shutdown ordering
// serveUntil exists to guarantee: on signal, in-flight HTTP requests
// run to completion BEFORE the backend closes. The old shape —
// closeBackend right after ListenAndServe returned — closed the engine
// while handlers were still executing, because http.Server's Serve
// returns the moment Shutdown begins, not when it finishes.
func TestServeUntilDrainsBeforeBackendClose(t *testing.T) {
	var (
		inHandler   atomic.Bool
		handlerDone atomic.Bool
		closedEarly atomic.Bool
		closed      atomic.Bool
	)
	release := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Store(true)
		<-release
		handlerDone.Store(true)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "drained")
	})}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serveUntil(srv, lis, sig, 5*time.Second, func() {
			closed.Store(true)
			if !handlerDone.Load() {
				closedEarly.Store(true)
			}
		})
	}()

	// One request in flight, held open inside the handler.
	respC := make(chan *http.Response, 1)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + lis.Addr().String() + "/")
		if err != nil {
			reqErr <- err
			return
		}
		respC <- resp
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !inHandler.Load() {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	sig <- os.Interrupt

	// The server must now be draining: serveUntil still running, backend
	// still open, handler still blocked.
	time.Sleep(50 * time.Millisecond)
	if closed.Load() {
		t.Fatal("backend closed while a handler was still executing")
	}
	select {
	case err := <-serveErr:
		t.Fatalf("serveUntil returned mid-drain: %v", err)
	default:
	}

	close(release)
	if err := <-serveErr; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if !closed.Load() {
		t.Fatal("backend never closed")
	}
	if closedEarly.Load() {
		t.Fatal("backend closed before the in-flight handler finished")
	}
	select {
	case err := <-reqErr:
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	case resp := <-respC:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "drained" {
			t.Fatalf("in-flight response = %d %q, want 200 \"drained\"", resp.StatusCode, body)
		}
	}
}
