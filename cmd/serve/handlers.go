package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"hypersort"
	"hypersort/internal/obs"
	"hypersort/internal/trace"
)

// backend is what the handlers need from the serving layer. A
// *hypersort.Engine satisfies it whether it holds one engine or fronts
// the shard processes (-cluster-mode=proxy), so the handler set is
// topology-blind. On a proxy InjectFault and DisarmFaults address every
// shard, which is exactly what a drill wants: the router may serve a
// configuration from its home shard or any replica.
type backend interface {
	SortBatchContext(ctx context.Context, reqs []hypersort.Request) []hypersort.Result
	InjectFault(cfg hypersort.Config, injs ...hypersort.Injection) error
	DisarmFaults(cfg hypersort.Config) error
	Metrics() hypersort.EngineMetrics
	ClusterMetrics() (hypersort.ClusterMetrics, bool)
	QueueWaitHint() int64
}

// newMux assembles the service's routes. Factored out of main so the
// conformance tests can drive the exact production handler set through
// httptest. ring may be nil (tracing disabled): /v1/trace then returns
// an empty trace document rather than an error, so dashboards poll it
// safely either way. chaos gates the fault-injection endpoints (off by
// default — arming kills against production traffic is a drill, not a
// service feature). routing is the -routing default: requests that do
// not name a "routing" policy themselves inherit it.
func newMux(eng backend, ring *trace.Ring, chaos bool, routing hypersort.RoutingPolicy) *http.ServeMux {
	// The queue-wait histogram feeds Retry-After on 503s. Registration
	// is idempotent, so this is the same instrument every Engine
	// observes into.
	queueWait := obs.QueueWaitHistogram(obs.Default())
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Prometheus text-format exposition of the process-wide registry —
	// the scrape target for Prometheus-compatible collectors. /v1/metrics
	// below carries the same registry as JSON for humans and scripts.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		// A proxy reports the shard-summed engine view under the same
		// key dashboards already read, plus the router totals and the
		// per-shard split.
		payload := map[string]any{
			"memory":   readMemMetrics(),
			"registry": obs.Default().Snapshot(),
			"engine":   eng.Metrics(),
		}
		if cm, ok := eng.ClusterMetrics(); ok {
			payload["cluster"] = cm
		}
		writeJSON(w, http.StatusOK, payload)
	})
	// Chrome trace-event JSON of the most recent machine events — load
	// the response in https://ui.perfetto.dev. ?last=N trims to the N
	// newest events.
	mux.HandleFunc("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		last := 0
		if q := r.URL.Query().Get("last"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad last=%q: want a non-negative integer", q))
				return
			}
			last = n
		}
		var events []hypersort.TraceEvent
		if ring != nil {
			events = ring.Snapshot(last)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChrome(w, events)
	})
	// Live profiling: `go tool pprof http://host/debug/pprof/allocs` is
	// how the zero-allocation hot path gets verified (and re-verified)
	// against production-shaped traffic.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/sort", func(w http.ResponseWriter, r *http.Request) {
		var wreq wireRequest
		keys, ok := readRequest(w, r, &wreq)
		if !ok {
			return
		}
		buf := getBuf()
		req, err := wreq.toRequest(routing, keys.get(wreq.Keys))
		if err != nil {
			*buf = appendError(*buf, err.Error())
			writeBody(w, http.StatusBadRequest, buf)
			return
		}
		// The request context rides into the engine: a client that
		// disconnects while its request waits for a machine frees its
		// admission slot immediately.
		res := eng.SortBatchContext(r.Context(), []hypersort.Request{req})[0]
		status := statusFor(res.Err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queueWait, eng)))
		}
		*buf = appendResult(*buf, req.Op, res)
		writeBody(w, status, buf)
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var body wireBatch
		keys, ok := readRequest(w, r, &body)
		if !ok {
			return
		}
		reqs := make([]hypersort.Request, len(body.Requests))
		preErr := make([]error, len(body.Requests))
		for i, wr := range body.Requests {
			reqs[i], preErr[i] = wr.toRequest(routing, keys.get(wr.Keys))
		}
		results := eng.SortBatchContext(r.Context(), reqs)
		for i, err := range preErr {
			if err != nil {
				results[i] = hypersort.Result{Err: err}
			}
		}
		buf := getBuf()
		*buf = appendBatch(*buf, reqs, results)
		writeBody(w, http.StatusOK, buf)
	})
	if chaos {
		// Chaos drill endpoints: arm a scheduled casualty against a
		// configuration's machine pool, or stand the drill down. A sort
		// hit by an armed kill recovers in-flight (diagnose, replan,
		// redistribute) and still answers 200 with sorted keys; the
		// recovery instruments land on /metrics.
		mux.HandleFunc("/v1/chaos/inject", func(w http.ResponseWriter, r *http.Request) {
			var wi wireInjection
			if _, ok := readRequest(w, r, &wi); !ok {
				return
			}
			cfg, inj, err := wi.toInjection(routing)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := eng.InjectFault(cfg, inj); err != nil {
				writeError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "armed"})
		})
		mux.HandleFunc("/v1/chaos/disarm", func(w http.ResponseWriter, r *http.Request) {
			var wr wireRequest
			if _, ok := readRequest(w, r, &wr); !ok {
				return
			}
			cfg, err := wr.toConfig(routing)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := eng.DisarmFaults(cfg); err != nil {
				writeError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "disarmed"})
		})
	}
	return mux
}

// retryAfterSeconds derives the Retry-After hint for a 503 from the
// observed p50 queue wait: if the median admitted request waits that
// long for capacity, a shed request retrying sooner would likely just
// be shed again. The observation is the worse of the local histogram's
// p50 and the backend's QueueWaitHint — the shard processes' own
// medians on a proxy, whose local histogram stays empty because it runs
// no engine. Ceiling to whole seconds with a floor of 1 — the header's
// unit is seconds and "0" would invite an immediate hot retry loop, the
// opposite of backpressure.
func retryAfterSeconds(queueWait *obs.Histogram, be backend) int {
	p50 := max(queueWait.Quantile(0.5), be.QueueWaitHint())
	secs := (p50 + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	// Cap the hint: the histogram's power-of-two bounds can overshoot by
	// 2x, and telling clients to go away for minutes turns a transient
	// spike into an outage of our own making.
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// statusFor maps a per-request engine error to its HTTP status:
// admission rejection (the configuration is at its in-flight bound) is
// transient backpressure, so it answers 503 rather than 422 — clients
// should shed or retry, not fix the request.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, hypersort.ErrAdmissionRejected):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// wireRequest is the JSON shape of one request. Keys is the token
// readRequest splices in for the "keys" array, which it parses by hand.
type wireRequest struct {
	Dim        int        `json:"dim"`
	Faults     []int64    `json:"faults,omitempty"`
	LinkFaults [][2]int64 `json:"link_faults,omitempty"`
	Model      string     `json:"model,omitempty"`   // "partial" (default) or "total"
	Routing    string     `json:"routing,omitempty"` // "ecube" or "multipath" ("" = the -routing default)
	Op         string     `json:"op,omitempty"`      // "sort" (default), "kth", "median", "topk"
	K          int        `json:"k,omitempty"`
	Keys       keysRef    `json:"keys"`
}

// wireBatch is the JSON shape of a /v1/batch body.
type wireBatch struct {
	Requests []wireRequest `json:"requests"`
}

// toConfig converts the wire form's configuration fields, rejecting
// unknown fault-model and routing strings. defRouting fills in for
// requests that leave "routing" empty — the server's -routing flag.
func (wr wireRequest) toConfig(defRouting hypersort.RoutingPolicy) (hypersort.Config, error) {
	cfg := hypersort.Config{Dim: wr.Dim}
	for _, f := range wr.Faults {
		cfg.Faults = append(cfg.Faults, hypersort.NodeID(f))
	}
	for _, l := range wr.LinkFaults {
		cfg.LinkFaults = append(cfg.LinkFaults, [2]hypersort.NodeID{hypersort.NodeID(l[0]), hypersort.NodeID(l[1])})
	}
	switch wr.Model {
	case "", "partial":
		cfg.Model = hypersort.Partial
	case "total":
		cfg.Model = hypersort.Total
	default:
		return hypersort.Config{}, fmt.Errorf("unknown fault model %q", wr.Model)
	}
	switch wr.Routing {
	case "":
		cfg.Routing = defRouting
	case "ecube":
		cfg.Routing = hypersort.RouteECube
	case "multipath":
		cfg.Routing = hypersort.RouteMultipath
	default:
		return hypersort.Config{}, fmt.Errorf("unknown routing policy %q", wr.Routing)
	}
	return cfg, nil
}

// toRequest converts the wire form, whose keys readRequest parsed, into
// a library request, rejecting unknown enum strings.
func (wr wireRequest) toRequest(defRouting hypersort.RoutingPolicy, keys []hypersort.Key) (hypersort.Request, error) {
	cfg, err := wr.toConfig(defRouting)
	if err != nil {
		return hypersort.Request{}, err
	}
	var op hypersort.Op
	switch wr.Op {
	case "", "sort":
		op = hypersort.OpSort
	case "kth":
		op = hypersort.OpKthSmallest
	case "median":
		op = hypersort.OpMedian
	case "topk":
		op = hypersort.OpTopK
	default:
		return hypersort.Request{}, fmt.Errorf("unknown op %q", wr.Op)
	}
	return hypersort.Request{Config: cfg, Op: op, Keys: keys, K: wr.K}, nil
}

// wireInjection is the JSON shape of one chaos-drill casualty: the
// target configuration (same fields as a sort request) plus exactly one
// of kill_node / kill_link, triggered at virtual time "at" or — nodes
// only — after the victim's "after_messages"-th send.
type wireInjection struct {
	wireRequest
	KillNode      *int64    `json:"kill_node,omitempty"`
	KillLink      *[2]int64 `json:"kill_link,omitempty"`
	At            int64     `json:"at,omitempty"`
	AfterMessages int64     `json:"after_messages,omitempty"`
}

// toInjection converts the wire form into the target configuration and
// the scheduled casualty.
func (wi wireInjection) toInjection(defRouting hypersort.RoutingPolicy) (hypersort.Config, hypersort.Injection, error) {
	cfg, err := wi.toConfig(defRouting)
	if err != nil {
		return hypersort.Config{}, hypersort.Injection{}, err
	}
	inj := hypersort.Injection{At: hypersort.Time(wi.At), AfterMessages: wi.AfterMessages}
	switch {
	case wi.KillNode != nil && wi.KillLink != nil:
		return hypersort.Config{}, hypersort.Injection{}, fmt.Errorf("kill_node and kill_link are mutually exclusive")
	case wi.KillNode != nil:
		inj.Kind = hypersort.KillNode
		inj.Node = hypersort.NodeID(*wi.KillNode)
	case wi.KillLink != nil:
		inj.Kind = hypersort.KillLink
		inj.Link = [2]hypersort.NodeID{hypersort.NodeID(wi.KillLink[0]), hypersort.NodeID(wi.KillLink[1])}
	default:
		return hypersort.Config{}, hypersort.Injection{}, fmt.Errorf("one of kill_node or kill_link is required")
	}
	return cfg, inj, nil
}

// memMetrics is the allocation-health slice of runtime.MemStats exposed
// on /v1/metrics: enough to watch steady-state allocation rate and GC
// pressure without scraping full pprof profiles.
type memMetrics struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	Frees           uint64 `json:"frees"`
	LiveObjects     uint64 `json:"live_objects"`
	NumGC           uint32 `json:"num_gc"`
	PauseTotalNs    uint64 `json:"gc_pause_total_ns"`
}

// readMemMetrics snapshots the runtime allocator counters.
func readMemMetrics() memMetrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMetrics{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		Frees:           ms.Frees,
		LiveObjects:     ms.Mallocs - ms.Frees,
		NumGC:           ms.NumGC,
		PauseTotalNs:    ms.PauseTotalNs,
	}
}

// requireGet rejects non-GET methods with a JSON 405 (HEAD passes — the
// stdlib mux serves it through the GET handler).
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return false
	}
	return true
}

// writeJSON writes v as the JSON response body with the given status,
// byte for byte as json.Encoder renders it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, _ := json.Marshal(v) // the service's own types always marshal
	writeBody(w, status, &b)
}

// writeError writes the service's uniform JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
