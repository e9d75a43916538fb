package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hypersort"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// TestRetryAfterSeconds pins the 503 backoff-hint derivation: ceiling
// of the observed p50 queue wait in whole seconds, floored at 1 (an
// empty histogram or sub-second waits must not invite a hot retry
// loop) and capped at 30 (the log-scale buckets overshoot by up to 2x,
// and a transient spike must not read as an outage).
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		observe []int64
		want    int
	}{
		{"empty histogram", nil, 1},
		{"sub-second waits", []int64{1000, 1 << 20}, 1},
		// One observation at 2^31 ns ~ 2.15s: the p50 bucket bound is
		// 2^31, which ceils to 3 whole seconds.
		{"two-second waits", []int64{1 << 31}, 3},
		// 2^36 ns ~ 69s: capped.
		{"pathological waits", []int64{1 << 36}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := &obs.Histogram{}
			for _, v := range c.observe {
				h.Observe(v)
			}
			if got := retryAfterSeconds(h, &hintingBackend{}); got != c.want {
				t.Fatalf("retryAfterSeconds = %d, want %d", got, c.want)
			}
		})
	}
}

// TestServeRetryAfterOnBackpressure drives a real admission rejection
// through the HTTP surface: with an in-flight bound of one and the only
// admitted sort held on its machine by a gated trace hook, the next sort
// must answer 503 with the computed whole-second Retry-After hint.
func TestServeRetryAfterOnBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	eng := hypersort.NewEngine(hypersort.EngineConfig{
		PoolSize:       1,
		AdmissionQueue: 1,
		Trace:          func(hypersort.TraceEvent) { <-gate },
	})
	srv := httptest.NewServer(newMux(eng, nil, false, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	body := sortBody(4, nil, 256)
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Metrics().MachinesBuilt == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held request never leased its machine")
		}
		time.Sleep(100 * time.Microsecond)
	}

	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", resp.StatusCode)
	}
	want := strconv.Itoa(retryAfterSeconds(obs.QueueWaitHistogram(obs.Default()), eng))
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Fatalf("Retry-After = %q, want the computed hint %q", got, want)
	}
	if n, _ := strconv.Atoi(want); n < 1 || n > 30 {
		t.Fatalf("Retry-After = %d, want within [1, 30]", n)
	}

	release()
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}
}

// newClusterTestServer stands up the production handler set over a
// proxy facade (NewRemoteCluster) in front of three shard servers on
// loopback — the -cluster-mode=proxy deployment, with each shard
// process played by an engine behind a transport.Server.
func newClusterTestServer(t *testing.T, chaos bool) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	addrs := make([]string, 3)
	for i := range addrs {
		eng := engine.New(1, 2)
		shard := transport.NewServer(eng, transport.ServerOptions{DrainTimeout: 100 * time.Millisecond})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go shard.Serve(lis)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			shard.Shutdown(ctx)
			eng.Close()
		})
		addrs[i] = lis.Addr().String()
	}
	proxy := hypersort.NewRemoteCluster(hypersort.ClusterConfig{Replicas: 1, BatchWorkers: 2}, addrs)
	srv := httptest.NewServer(newMux(proxy, nil, chaos, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		proxy.Close()
	})
	return srv, proxy
}

// TestServeClusterBackend checks the handler set is topology-blind: a
// proxy behind the same mux serves sorts correctly and /v1/metrics
// reports both the shard-summed engine view (under the key dashboards
// already read) and the router's cluster section.
func TestServeClusterBackend(t *testing.T) {
	srv, proxy := newClusterTestServer(t, false)
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(4, []int64{3}, 128)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i] < res.Keys[i-1] {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if m, ok := proxy.ClusterMetrics(); !ok || m.Requests != 1 {
		t.Fatalf("router served %d requests (ok=%v), want 1", m.Requests, ok)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var payload struct {
		Engine *struct {
			Requests int64 `json:"Requests"`
		} `json:"engine"`
		Cluster *struct {
			Requests int64 `json:"Requests"`
			Shards   []any `json:"Shards"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Engine == nil {
		t.Fatal("/v1/metrics lost the engine section on a proxy backend")
	}
	if payload.Engine.Requests != 1 {
		t.Fatalf("engine section reports %d requests summed over the shards, want 1", payload.Engine.Requests)
	}
	if payload.Cluster == nil {
		t.Fatal("/v1/metrics missing the cluster section on a proxy backend")
	}
	if payload.Cluster.Requests != 1 {
		t.Fatalf("cluster section reports %d requests, want 1", payload.Cluster.Requests)
	}
	if len(payload.Cluster.Shards) != 3 {
		t.Fatalf("cluster section reports %d shards, want 3", len(payload.Cluster.Shards))
	}
}

// TestServeClusterChaosAllShards checks `serve -chaos` against a proxy:
// inject arms every shard over the wire (the router may serve the
// configuration from home or any replica), a struck sort still answers
// 200 with sorted keys, and disarm stands the whole fleet down.
func TestServeClusterChaosAllShards(t *testing.T) {
	srv, proxy := newClusterTestServer(t, true)
	body := sortBody(4, nil, 300)

	// Healthy run to size the kill time.
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var clean wireResult
	if err := json.NewDecoder(resp.Body).Decode(&clean); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if clean.Err != "" {
		t.Fatalf("healthy run failed: %s", clean.Err)
	}
	mid := clean.Stats.Makespan / 2
	if mid <= 0 {
		t.Fatalf("healthy makespan %d too small to bisect", clean.Stats.Makespan)
	}

	inj := fmt.Sprintf(`{"dim":4,"kill_node":5,"at":%d}`, mid)
	iresp, err := http.Post(srv.URL+"/v1/chaos/inject", "application/json", strings.NewReader(inj))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d", iresp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var struck wireResult
	if err := json.NewDecoder(resp.Body).Decode(&struck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if struck.Err != "" {
		t.Fatalf("struck sort did not recover: %s", struck.Err)
	}
	for i := 1; i < len(struck.Keys); i++ {
		if struck.Keys[i] < struck.Keys[i-1] {
			t.Fatalf("recovered output not sorted at %d", i)
		}
	}
	if m := proxy.Metrics(); m.Replans < 1 {
		t.Fatalf("shard replans = %d, want >= 1", m.Replans)
	}

	dresp, err := http.Post(srv.URL+"/v1/chaos/disarm", "application/json", strings.NewReader(`{"dim":4}`))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("disarm status %d", dresp.StatusCode)
	}
}
