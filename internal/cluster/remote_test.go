package cluster

// Tests for the multi-process shape: transport.Client backends over
// live transport servers, with the headline acceptance check — a shard
// dying mid-call loses ZERO non-shed requests, because the router
// reroutes the failed call to the dead shard's ring successor.

import (
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"context"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/transport"
)

// sortingBackend is a transport.Backend that sorts in-process; an
// optional gate blocks Do until the channel closes (or the request
// context dies), letting a test hold a request in flight on a chosen
// shard while it kills that shard.
type sortingBackend struct {
	gate chan struct{}
}

func (b *sortingBackend) DoContext(ctx context.Context, req engine.Request) engine.Result {
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return engine.Result{Err: ctx.Err()}
		}
	}
	keys := append([]sortutil.Key(nil), req.Keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return engine.Result{Keys: keys}
}

func (b *sortingBackend) InjectFault(engine.Config, ...machine.Injection) error { return nil }
func (b *sortingBackend) DisarmFaults(engine.Config) error                      { return nil }
func (b *sortingBackend) Metrics() engine.Metrics                               { return engine.Metrics{Requests: 1} }

// startShardProcess stands up one transport server (our in-test stand-in
// for a shard process) and the client backend dialing it.
func startShardProcess(t *testing.T, be transport.Backend) (*transport.Server, *transport.Client) {
	t.Helper()
	srv := transport.NewServer(be, transport.ServerOptions{DrainTimeout: 100 * time.Millisecond})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	cl := transport.NewClient(lis.Addr().String(), transport.ClientOptions{
		DialTimeout:     time.Second,
		CallTimeout:     5 * time.Second,
		ReprobeInterval: 10 * time.Millisecond,
	})
	t.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, cl
}

// hardKill force-closes a server — cancelled context, so the drain loop
// exits immediately and every connection is cut mid-flight, the closest
// an in-process test gets to SIGKILL (the CI smoke leg does the real one).
func hardKill(srv *transport.Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
}

func TestRemoteClusterSortsAcrossShardProcesses(t *testing.T) {
	const shards = 3
	backends := make([]Backend, shards)
	for i := range backends {
		_, rs := startShardProcess(t, &sortingBackend{})
		backends[i] = rs
	}
	c := NewWithBackends(Options{Replicas: 1}, backends)
	defer c.Close()

	if got := c.HealthyShards(); got != shards {
		t.Fatalf("HealthyShards = %d, want %d", got, shards)
	}
	for i := 0; i < 40; i++ {
		res := c.Do(engine.Request{
			Config: engine.Config{Dim: 4 + i%3},
			Op:     engine.OpSort,
			Keys:   []sortutil.Key{3, sortutil.Key(i), -1},
		})
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !sort.SliceIsSorted(res.Keys, func(a, b int) bool { return res.Keys[a] < res.Keys[b] }) {
			t.Fatalf("request %d: unsorted %v", i, res.Keys)
		}
	}
	if m := c.Metrics(); m.Engine.Requests != shards {
		// Each sortingBackend reports Requests=1; the cluster sums them —
		// proving Metrics crossed the wire from every shard process.
		t.Fatalf("summed remote metrics = %d, want %d", m.Engine.Requests, shards)
	}
}

// TestRemoteClusterReroutesOnShardDeath holds a request in flight on its
// home shard, hard-kills that shard, and requires the router to finish
// the request on the ring successor: zero failed non-shed requests, and
// the reroute counter records the recovery.
func TestRemoteClusterReroutesOnShardDeath(t *testing.T) {
	const shards = 3
	gate := make(chan struct{})
	gated := &sortingBackend{gate: gate}
	defer close(gate)

	servers := make([]*transport.Server, shards)
	backends := make([]Backend, shards)
	// Build twice: the first pass learns which shard a probe config homes
	// on, the second gates exactly that shard's backend. Ring placement
	// depends only on shard COUNT, so the assignment carries over.
	probe := engine.Config{Dim: 6}
	scout := NewWithBackends(Options{Replicas: 1}, []Backend{
		&churnBackend{}, &churnBackend{}, &churnBackend{},
	})
	victim := scout.Candidates(probe)[0]
	scout.Close()

	for i := range backends {
		be := &sortingBackend{}
		if i == victim {
			be = gated
		}
		servers[i], backends[i] = startShardProcess(t, be)
	}
	c := NewWithBackends(Options{Replicas: 1}, backends)
	defer c.Close()

	resC := make(chan engine.Result, 1)
	go func() {
		resC <- c.Do(engine.Request{Config: probe, Op: engine.OpSort, Keys: []sortutil.Key{7, -2, 5}})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for servers[victim].Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the victim shard")
		}
		time.Sleep(time.Millisecond)
	}

	hardKill(servers[victim])

	res := <-resC
	if res.Err != nil {
		t.Fatalf("request lost to shard death: %v", res.Err)
	}
	want := []sortutil.Key{-2, 5, 7}
	for i, k := range want {
		if res.Keys[i] != k {
			t.Fatalf("rerouted result = %v, want %v", res.Keys, want)
		}
	}
	m := c.Metrics()
	if m.Reroutes < 1 {
		t.Fatalf("Reroutes = %d, want >= 1", m.Reroutes)
	}

	// The dead shard must now be marked down, and a follow-up storm over
	// many configurations — a third of which home on the victim — must
	// lose nothing: every request sorts on a survivor.
	healthyDeadline := time.Now().Add(time.Second)
	for backends[victim].Healthy() {
		if time.Now().After(healthyDeadline) {
			t.Fatal("victim shard never marked unhealthy")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	errs := make([]error, 60)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := c.Do(engine.Request{
				Config: engine.Config{Dim: 4 + i%5},
				Op:     engine.OpSort,
				Keys:   []sortutil.Key{sortutil.Key(i), 0, -9},
			})
			errs[i] = res.Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-kill request %d failed (want success or shed, got neither): %v", i, err)
		}
	}
	if c.HealthyShards() != shards-1 {
		t.Fatalf("HealthyShards = %d, want %d", c.HealthyShards(), shards-1)
	}
}
