package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"hypersort"
	"hypersort/internal/cluster"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/direct"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/partition"
	"hypersort/internal/selection"
	"hypersort/internal/sortutil"
	"hypersort/internal/trace"
	"hypersort/internal/transport"
)

// replay calls each layer's public Go entry point on a workload's
// requests, one request at a time, top to bottom. Every object is set up
// the way the workload's serve flags set up the server's: the same
// engine mode, and serve's trace ring where the workload's server has
// one.
type replay struct {
	hook    machine.TraceFunc // nil unless the workload's server traces
	http    *httpLayer
	facade  func(context.Context, []hypersort.Request) []hypersort.Result
	eng     *engine.Engine
	shard   *timedBackend // rp.eng behind the in-process shard server
	tcl     *transport.Client
	clu     *cluster.Cluster
	kernels map[string]*kernel
	closers []func()
}

// kernel holds one configuration's plan, simulated machine and compiled
// direct schedule.
type kernel struct {
	plan   *partition.Plan
	layout *core.Layout
	m      *machine.Machine
	sched  *direct.Schedule
	exec   *direct.Exec
}

// layerTimes are the microseconds one replayed request spent in each
// layer, keyed by span name. A layer the request skips is absent.
type layerTimes map[string]float64

// newReplay sets up the layers for w. With shardAddrs the facade is a
// remote cluster over those shard processes, as the proxy's is.
func newReplay(w *workload, shardAddrs []string) (*replay, error) {
	rp := &replay{kernels: map[string]*kernel{}}
	if w.tracing {
		// serve's -trace-buf and -trace-sample defaults.
		rp.hook = trace.NewRing(1<<16, 1).Record
	}
	var err error
	if rp.http, err = newHTTPLayer(); err != nil {
		return nil, err
	}
	rp.closers = append(rp.closers, rp.http.close)
	rp.eng = engine.NewOpts(0, 0, engine.BatchOptions{})
	rp.eng.SetMode(engine.ModeAuto)
	if rp.hook != nil {
		rp.eng.SetTrace(rp.hook)
	}
	rp.eng.Instrument(obs.Default())
	rp.closers = append(rp.closers, rp.eng.Close)
	rp.shard = &timedBackend{Engine: rp.eng}
	addr, err := rp.serveTransport(rp.shard)
	if err != nil {
		rp.close()
		return nil, err
	}
	rp.tcl = transport.NewClient(addr, transport.ClientOptions{})
	rp.closers = append(rp.closers, rp.tcl.Close)
	rp.clu = cluster.New(cluster.Options{Shards: 2, Mode: engine.ModeAuto, Trace: rp.hook})
	rp.closers = append(rp.closers, rp.clu.Close)

	if len(shardAddrs) > 0 {
		c := hypersort.NewRemoteCluster(hypersort.ClusterConfig{}, shardAddrs)
		rp.facade = c.SortBatchContext
		rp.closers = append(rp.closers, c.Close)
	} else {
		cfg := hypersort.EngineConfig{Mode: hypersort.ModeAuto}
		if rp.hook != nil {
			cfg.Trace = rp.hook
		}
		e := hypersort.NewEngine(cfg)
		rp.facade = e.SortBatchContext
		rp.closers = append(rp.closers, e.Close)
	}
	return rp, nil
}

// serveTransport serves eng over the wire protocol on a loopback port,
// as a `serve -cluster-mode=shard` process does.
func (rp *replay) serveTransport(eng transport.Backend) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := transport.NewServer(eng, transport.ServerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	rp.closers = append(rp.closers, func() {
		_ = srv.Shutdown(context.Background())
		<-done
	})
	return lis.Addr().String(), nil
}

// close releases everything in reverse order of creation.
func (rp *replay) close() {
	for i := len(rp.closers) - 1; i >= 0; i-- {
		rp.closers[i]()
	}
}

func nodeIDs(faults []int64) []cube.NodeID {
	ids := make([]cube.NodeID, len(faults))
	for i, f := range faults {
		ids[i] = cube.NodeID(f)
	}
	return ids
}

// kernelFor builds (once) the plan, machine and direct schedule of c.
func (rp *replay) kernelFor(c config) (*kernel, error) {
	if k, ok := rp.kernels[c.String()]; ok {
		return k, nil
	}
	faults := cube.NewNodeSet(nodeIDs(c.faults)...)
	plan, err := partition.BuildPlanObjective(c.dim, faults, partition.ObjectiveHops)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{Dim: c.dim, Faults: faults, Trace: rp.hook})
	if err != nil {
		return nil, err
	}
	rp.closers = append(rp.closers, m.Close)
	layout := core.NewLayout(plan)
	sched := direct.Compile(layout)
	k := &kernel{plan: plan, layout: layout, m: m, sched: sched, exec: direct.NewExec(sched)}
	rp.kernels[c.String()] = k
	return k, nil
}

// configTimes times the per-configuration layers — the partition search
// and the direct compile — reps times for each configuration.
func configTimes(cfgs []config, reps int) (search, compile []float64, err error) {
	for _, c := range cfgs {
		faults := cube.NewNodeSet(nodeIDs(c.faults)...)
		for i := 0; i < reps; i++ {
			start := time.Now()
			plan, err := partition.BuildPlanObjective(c.dim, faults, partition.ObjectiveHops)
			if err != nil {
				return nil, nil, err
			}
			search = append(search, us(time.Since(start)))
			start = time.Now()
			direct.Compile(core.NewLayout(plan))
			compile = append(compile, us(time.Since(start)))
		}
	}
	return search, compile, nil
}

// one replays request seq through every layer, recording one span per
// layer call under a span for the whole request; answer is the real
// server's answer to it. It returns the layer times, whether the facade
// served the request on the direct substrate, and the facade's message
// and comparison counts.
func (rp *replay) one(ctx context.Context, tr *tracer, seq int, r *request, answer []byte) (layerTimes, bool, hypersort.Stats, error) {
	lt := layerTimes{}
	const track = 2
	reqStart := time.Now()
	span := func(name string, start time.Time) {
		lt[name] += tr.since(name, seq, "request", track, start)
	}

	// serve: the request's bytes through net/http to a handler that
	// decodes them as cmd/serve's does and answers with the real server's
	// answer bytes. The transfer is the round trip less the decode.
	start := time.Now()
	d, err := rp.http.roundTrip(ctx, r, answer)
	end := time.Now()
	if err != nil {
		return nil, false, hypersort.Stats{}, err
	}
	lt["serve.json_decode"] = tr.add("serve.json_decode", seq, "serve.http", track, d.start, d.end)
	lt["serve.http_transfer"] = tr.add("serve.http", seq, "request", track, start, end) - lt["serve.json_decode"]
	wrs := d.wrs
	reqs := make([]hypersort.Request, len(wrs))
	ereqs := make([]engine.Request, len(wrs))
	for i, wr := range wrs {
		keys := make([]hypersort.Key, len(wr.Keys))
		for j, k := range wr.Keys {
			keys[j] = hypersort.Key(k)
		}
		op := hypersort.OpSort
		if wr.Op == "topk" {
			op = hypersort.OpTopK
		}
		reqs[i] = hypersort.Request{Config: hypersort.Config{Dim: wr.Dim, Faults: nodeIDs(wr.Faults)}, Op: op, Keys: keys, K: wr.K}
		ereqs[i] = engine.Request{Config: engine.Config{Dim: wr.Dim, Faults: reqs[i].Config.Faults}, Op: op, Keys: keys, K: wr.K}
	}

	// facade: the root package's SortBatchContext, as the handler calls it.
	start = time.Now()
	results := rp.facade(ctx, reqs)
	span("facade.sort", start)
	var stats hypersort.Stats
	for i, res := range results {
		if err := checkKeys(r, i, res.Keys, res.Err); err != nil {
			return nil, false, stats, err
		}
		stats.Messages += res.Stats.Messages
		stats.Comparisons += res.Stats.Comparisons
	}

	// serve: encode the answer in cmd/serve's wire shape.
	start = time.Now()
	out := make([]wireResult, len(results))
	for i, res := range results {
		out[i] = wireResult{Keys: make([]int64, len(res.Keys)), Stats: res.Stats, Direct: res.Direct}
		for j, k := range res.Keys {
			out[i].Keys[j] = int64(k)
		}
	}
	var buf bytes.Buffer
	var v any = out[0]
	if r.path == batchPath {
		v = map[string]any{"results": out}
	}
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false, stats, err
	}
	span("serve.json_encode", start)

	// engine, then the plan-cache lookup it starts with.
	start = time.Now()
	var eres []engine.Result
	if len(ereqs) > 1 {
		eres = rp.eng.BatchContext(ctx, ereqs)
	} else {
		eres = []engine.Result{rp.eng.DoContext(ctx, ereqs[0])}
	}
	span("engine.do", start)
	start = time.Now()
	for _, er := range ereqs {
		if _, err := rp.eng.Plan(er.Config); err != nil {
			return nil, false, stats, err
		}
	}
	span("partition.lookup", start)

	// direct and machine kernels on the same keys.
	for i, er := range ereqs {
		k, err := rp.kernelFor(config{dim: wrs[i].Dim, faults: wrs[i].Faults})
		if err != nil {
			return nil, false, stats, err
		}
		if er.Op == engine.OpTopK {
			start = time.Now()
			_, _, err = selection.TopK(k.m, k.plan, er.Keys, er.K)
			span("machine.topk", start)
			if err != nil {
				return nil, false, stats, err
			}
			continue
		}
		start = time.Now()
		_, err = k.exec.Sort(er.Keys)
		span("direct.exec", start)
		if err != nil {
			return nil, false, stats, err
		}
		start = time.Now()
		_, err = k.sched.Predict(len(er.Keys), machine.CostModel{})
		span("direct.predict", start)
		if err != nil {
			return nil, false, stats, err
		}
		start = time.Now()
		_, _, err = core.FTSortLayout(k.m, k.layout, er.Keys, core.Options{})
		span("machine.ftsort", start)
		if err != nil {
			return nil, false, stats, err
		}
	}

	// transport: frame codec, then a loopback round trip to an
	// in-process shard server.
	var reqFrame, resFrame []byte
	var f transport.Frame
	for i, er := range ereqs {
		start = time.Now()
		reqFrame = transport.AppendRequest(reqFrame[:0], uint64(seq), er, 0)
		resFrame = transport.AppendResult(resFrame[:0], uint64(seq), eres[i], transport.Feedback{})
		span("transport.encode", start)
		start = time.Now()
		errReq := transport.DecodeFrame(&f, reqFrame[4:])
		errRes := transport.DecodeFrame(&f, resFrame[4:])
		span("transport.decode", start)
		if err := errors.Join(errReq, errRes); err != nil {
			return nil, false, stats, err
		}
		start = time.Now()
		res := rp.tcl.Do(ctx, er)
		rtt := tr.since("transport.rtt", seq, "request", track, start)
		if res.Err != nil {
			return nil, false, stats, res.Err
		}
		lt["transport.rtt"] += rtt
		lt["transport.self"] += rtt - us(time.Duration(rp.shard.last.Load()))
	}

	// cluster: the in-process router over local shards.
	start = time.Now()
	if len(ereqs) > 1 {
		rp.clu.BatchContext(ctx, ereqs)
	} else {
		rp.clu.DoContext(ctx, ereqs[0])
	}
	span("cluster.do", start)

	tr.since("request", seq, "", track, reqStart)
	return lt, results[0].Direct, stats, nil
}

// wireResult mirrors the answer shape cmd/serve encodes.
type wireResult struct {
	Keys   []int64         `json:"keys,omitempty"`
	Value  *int64          `json:"value,omitempty"`
	Stats  hypersort.Stats `json:"stats"`
	Direct bool            `json:"direct,omitempty"`
	Err    string          `json:"error,omitempty"`
}

// checkKeys compares one in-process answer with item i's expectation.
func checkKeys(r *request, i int, keys []sortutil.Key, err error) error {
	if err != nil {
		return fmt.Errorf("request %d item %d: %w", r.id, i, err)
	}
	got := make([]int64, len(keys))
	for j, k := range keys {
		got[j] = int64(k)
	}
	if !bytes.Equal(renderKeys(got), r.items[i].want) {
		return fmt.Errorf("request %d item %d: wrong keys", r.id, i)
	}
	return nil
}

// distinctConfigs lists the configurations the pool's requests name.
func distinctConfigs(pool []*request) []config {
	var cfgs []config
	for _, r := range pool {
		for _, it := range r.items {
			if !slices.ContainsFunc(cfgs, func(c config) bool { return c.String() == it.cfg.String() }) {
				cfgs = append(cfgs, it.cfg)
			}
		}
	}
	return cfgs
}

// httpLayer is an in-process net/http server standing in for cmd/serve's
// HTTP front: its handler decodes the body the way cmd/serve's readJSON
// does, hands the decoded request back, and writes a given answer.
type httpLayer struct {
	srv     *http.Server
	done    chan struct{}
	client  *http.Client
	base    string
	answer  atomic.Pointer[[]byte]
	decoded chan decoded // one per request; the replay is sequential
}

// decoded is what the handler decoded, and when.
type decoded struct {
	wrs        []wireRequest
	start, end time.Time
	err        error
}

func newHTTPLayer() (*httpLayer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpLayer{
		done:    make(chan struct{}),
		client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		base:    "http://" + lis.Addr().String(),
		decoded: make(chan decoded, 1),
	}
	h.srv = &http.Server{Handler: http.HandlerFunc(h.serve)}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(lis)
	}()
	return h, nil
}

func (h *httpLayer) serve(w http.ResponseWriter, r *http.Request) {
	d := decoded{start: time.Now()}
	if r.URL.Path == batchPath {
		var env wireBatch
		d.err = json.NewDecoder(r.Body).Decode(&env)
		d.wrs = env.Requests
	} else {
		var wr wireRequest
		d.err = json.NewDecoder(r.Body).Decode(&wr)
		d.wrs = []wireRequest{wr}
	}
	d.end = time.Now()
	h.decoded <- d
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*h.answer.Load())
}

// roundTrip posts r's body, reads the answer, and returns what the
// handler decoded.
func (h *httpLayer) roundTrip(ctx context.Context, r *request, answer []byte) (decoded, error) {
	h.answer.Store(&answer)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return decoded{}, err
	}
	resp, err := h.client.Do(hr)
	if err != nil {
		return decoded{}, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return decoded{}, err
	}
	d := <-h.decoded
	return d, d.err
}

func (h *httpLayer) close() {
	h.client.CloseIdleConnections()
	_ = h.srv.Close()
	<-h.done
}

// timedBackend is the engine behind the in-process shard server. It
// records how long the engine itself spent on the latest request, so
// the transport's own time is the round trip less exactly that, on the
// same path the shard takes (inline direct, or the engine's lanes).
type timedBackend struct {
	*engine.Engine
	last atomic.Int64 // nanoseconds
}

// DoContext serves req on the engine's ordinary path and records its time.
func (b *timedBackend) DoContext(ctx context.Context, req engine.Request) engine.Result {
	start := time.Now()
	res := b.Engine.DoContext(ctx, req)
	b.last.Store(int64(time.Since(start)))
	return res
}

// DoDirect serves req inline when it is direct-eligible and records its
// time.
func (b *timedBackend) DoDirect(req engine.Request) (engine.Result, bool) {
	start := time.Now()
	res, ok := b.Engine.DoDirect(req)
	if ok {
		b.last.Store(int64(time.Since(start)))
	}
	return res, ok
}
