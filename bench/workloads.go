package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	keydist "hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// config is one faulty-hypercube configuration a request names.
type config struct {
	dim    int
	faults []int64
}

// String names the configuration, e.g. Q6[3 17 40].
func (c config) String() string { return fmt.Sprintf("Q%d%v", c.dim, c.faults) }

// ladder is the configuration ladder every serve workload cycles
// through: the paper's Q6 example, a small degraded cube, a healthy cube,
// and a Q6 at the paper's n-1 fault limit.
var ladder = []config{
	{dim: 6, faults: []int64{3, 17, 40}},
	{dim: 5, faults: []int64{1, 6}},
	{dim: 4},
	{dim: 6, faults: []int64{0, 21, 42, 63, 5}},
}

// workload is one traffic mix. Request rates and sizes are fixed here,
// never derived at run time; bench/README.md gives the reasons.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// flags are the serve flags of the single server process, or of each
	// shard process when shards > 0; proxyFlags are the proxy's.
	flags      []string
	shards     int
	proxyFlags []string
	// procs, when positive, is GOMAXPROCS of every server process.
	procs int
	// tracing is true when the serving engine has serve's trace ring
	// attached, as the shipped -trace-buf default does.
	tracing bool
	// pool generates the workload's distinct requests from the seed;
	// request seq of the stream is pool[seq%len(pool)]. Nil for the
	// reproduce workload, which sends no requests.
	pool func(rng *xrand.RNG) []*request
}

var workloads = []*workload{
	{name: "serve-small", rate: 500, tracing: true, pool: smallPool},
	{name: "serve-large", rate: 60, flags: []string{"-trace-buf", "0"}, pool: largePool},
	// One P per process, as one process per core deploys them. With two
	// Ps each, three processes on two vCPUs spent a quarter of their CPU
	// spinning, and CPU per request swung by a quarter between runs. The
	// proxy keeps two batch workers, the default on two cores, so a
	// batch still fans out.
	{name: "proxy-mix", rate: 400, flags: []string{"-trace-buf", "0"}, shards: 2,
		proxyFlags: []string{"-workers", "2"}, procs: 1, pool: mixPool},
	{name: "reproduce"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	sortPath  = "/v1/sort"
	batchPath = "/v1/batch"
)

// item is one sort or top-k inside a request, with its expected answer.
type item struct {
	cfg  config
	op   string // "sort" or "topk"
	k    int
	keys []int64
	// want is the expected "keys" array exactly as encoding/json renders
	// it, so the checker compares answer bytes without decoding them.
	want []byte
}

// request is one HTTP request of a workload's stream: a single sort or
// top-k on /v1/sort, or a batch of sorts on /v1/batch.
type request struct {
	id    int // index in the workload's pool
	path  string
	body  []byte
	items []item
}

// kind names the request's endpoint and operation for cold-start probes.
func (r *request) kind() string {
	if r.path == batchPath {
		return "batch"
	}
	return r.items[0].op
}

// smallPool: tiny sorts (M in {16, 64, 256}) round-robin over the ladder.
func smallPool(rng *xrand.RNG) []*request {
	sizes := []int{16, 64, 256}
	reqs := make([]*request, 48)
	for i := range reqs {
		reqs[i] = single(i, newItem(ladder[i%len(ladder)], "sort", 0, sizes[i%len(sizes)], rng))
	}
	return reqs
}

// largePool: M = 16384 sorts on the two degraded small-fault configs.
func largePool(rng *xrand.RNG) []*request {
	reqs := make([]*request, 16)
	for i := range reqs {
		reqs[i] = single(i, newItem(ladder[i%2], "sort", 0, 16384, rng))
	}
	return reqs
}

// mixPool: per ten requests, seven sorts of 1024 keys, two top-16s of
// 1024 keys and one batch of eight 256-key sorts, over the ladder.
func mixPool(rng *xrand.RNG) []*request {
	reqs := make([]*request, 40)
	for i := range reqs {
		cfg := ladder[i%len(ladder)]
		switch i % 10 {
		case 7, 8:
			reqs[i] = single(i, newItem(cfg, "topk", 16, 1024, rng))
		case 9:
			items := make([]item, 8)
			for j := range items {
				items[j] = newItem(ladder[(i+j)%len(ladder)], "sort", 0, 256, rng)
			}
			reqs[i] = batch(i, items)
		default:
			reqs[i] = single(i, newItem(cfg, "sort", 0, 1024, rng))
		}
	}
	return reqs
}

// newItem draws m uniform keys and renders the expected answer.
func newItem(cfg config, op string, k, m int, rng *xrand.RNG) item {
	keys := keydist.MustGenerate(keydist.Uniform, m, rng)
	it := item{cfg: cfg, op: op, k: k, keys: make([]int64, m)}
	for i, key := range keys {
		it.keys[i] = int64(key)
	}
	want := slices.Clone(it.keys)
	slices.Sort(want)
	if op == "topk" {
		want = want[len(want)-k:]
	}
	it.want = renderKeys(want)
	return it
}

// renderKeys renders keys the way encoding/json renders an []int64.
func renderKeys(keys []int64) []byte {
	b := make([]byte, 0, len(keys)*14+2)
	b = append(b, '[')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, k, 10)
	}
	return append(b, ']')
}

// wireRequest mirrors the request shape cmd/serve documents and decodes
// (cmd/serve/handlers.go).
type wireRequest struct {
	Dim        int        `json:"dim"`
	Faults     []int64    `json:"faults,omitempty"`
	LinkFaults [][2]int64 `json:"link_faults,omitempty"`
	Model      string     `json:"model,omitempty"`
	Routing    string     `json:"routing,omitempty"`
	Op         string     `json:"op,omitempty"`
	K          int        `json:"k,omitempty"`
	Keys       []int64    `json:"keys"`
}

// wireBatch is the /v1/batch request envelope.
type wireBatch struct {
	Requests []wireRequest `json:"requests"`
}

func (it item) wire() wireRequest {
	return wireRequest{Dim: it.cfg.dim, Faults: it.cfg.faults, Op: it.op, K: it.k, Keys: it.keys}
}

func single(id int, it item) *request {
	return &request{id: id, path: sortPath, body: mustJSON(it.wire()), items: []item{it}}
}

func batch(id int, items []item) *request {
	env := wireBatch{Requests: make([]wireRequest, len(items))}
	for j, it := range items {
		env.Requests[j] = it.wire()
	}
	return &request{id: id, path: batchPath, body: mustJSON(env), items: items}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of ints and strings reach here
	}
	return b
}

var keysTag = []byte(`"keys":`)

// check verifies one HTTP answer to r. A non-200 status, a missing or
// wrong "keys" array, or an extra one is an error naming the request.
// The fast path compares each "keys" array byte for byte with the
// pre-rendered expectation; on a mismatch the body is decoded, so a
// change of JSON formatting alone is never reported as a wrong answer.
func (r *request) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("request %d: HTTP %d: %s", r.id, status, snippet(body))
	}
	rest := body
	for _, it := range r.items {
		i := bytes.Index(rest, keysTag)
		if i < 0 || !bytes.HasPrefix(rest[i+len(keysTag):], it.want) {
			return r.checkDecoded(body)
		}
		rest = rest[i+len(keysTag)+len(it.want):]
	}
	if bytes.Contains(rest, keysTag) {
		return r.checkDecoded(body)
	}
	return nil
}

// answer is one result as cmd/serve encodes it.
type answer struct {
	Keys []int64 `json:"keys"`
	Err  string  `json:"error"`
}

// checkDecoded is check's slow path: decode the body and compare keys.
func (r *request) checkDecoded(body []byte) error {
	var got []answer
	if r.path == batchPath {
		var env struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("request %d: bad JSON: %v", r.id, err)
		}
		got = env.Results
	} else {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("request %d: bad JSON: %v", r.id, err)
		}
		got = []answer{a}
	}
	if len(got) != len(r.items) {
		return fmt.Errorf("request %d: %d results, want %d", r.id, len(got), len(r.items))
	}
	for j, it := range r.items {
		if got[j].Err != "" {
			return fmt.Errorf("request %d item %d: error %q", r.id, j, got[j].Err)
		}
		var want []int64
		if err := json.Unmarshal(it.want, &want); err != nil {
			return fmt.Errorf("request %d item %d: bad expectation: %v", r.id, j, err)
		}
		if len(got[j].Keys) != len(want) {
			return fmt.Errorf("request %d item %d: %d keys, want %d", r.id, j, len(got[j].Keys), len(want))
		}
		for x := range want {
			if got[j].Keys[x] != want[x] {
				return fmt.Errorf("request %d item %d: key %d is %d, want %d", r.id, j, x, got[j].Keys[x], want[x])
			}
		}
	}
	return nil
}

func snippet(b []byte) string {
	const max = 120
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(bytes.TrimSpace(b))
}
