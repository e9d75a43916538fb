package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hypersort"
)

// The encoding/json codec the hand-rolled one replaced, kept as the
// oracle: the request shape with keys as []int64, the result shape, and
// the conversions between them and the library types.

// wireRequestOld is wireRequest as encoding/json decoded it whole.
type wireRequestOld struct {
	Dim        int        `json:"dim"`
	Faults     []int64    `json:"faults,omitempty"`
	LinkFaults [][2]int64 `json:"link_faults,omitempty"`
	Model      string     `json:"model,omitempty"`
	Routing    string     `json:"routing,omitempty"`
	Op         string     `json:"op,omitempty"`
	K          int        `json:"k,omitempty"`
	Keys       []int64    `json:"keys"`
}

// wireResult is the JSON shape of one outcome; the tests also decode
// answers into it.
type wireResult struct {
	Keys   []int64         `json:"keys,omitempty"`
	Value  *int64          `json:"value,omitempty"`
	Stats  hypersort.Stats `json:"stats"`
	Direct bool            `json:"direct,omitempty"`
	Err    string          `json:"error,omitempty"`
}

// toRequestOld converts the old wire form through today's toRequest.
func toRequestOld(wr wireRequestOld, defRouting hypersort.RoutingPolicy) (hypersort.Request, error) {
	keys := make([]hypersort.Key, len(wr.Keys))
	for i, k := range wr.Keys {
		keys[i] = hypersort.Key(k)
	}
	cfg := wireRequest{Dim: wr.Dim, Faults: wr.Faults, LinkFaults: wr.LinkFaults, Model: wr.Model, Routing: wr.Routing, Op: wr.Op, K: wr.K}
	return cfg.toRequest(defRouting, keys)
}

// toWireOld converts a library result into its wire form.
func toWireOld(req hypersort.Request, res hypersort.Result) wireResult {
	if res.Err != nil {
		return wireResult{Err: res.Err.Error()}
	}
	out := wireResult{Stats: res.Stats, Direct: res.Direct}
	switch req.Op {
	case hypersort.OpKthSmallest, hypersort.OpMedian:
		v := int64(res.Value)
		out.Value = &v
	default:
		out.Keys = make([]int64, len(res.Keys))
		for i, k := range res.Keys {
			out.Keys[i] = int64(k)
		}
	}
	return out
}

// encodeOld renders v as the old writeJSON did.
func encodeOld(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asOld converts a decoded request back to the old wire form, keeping
// nil and empty keys apart, so decoded fields compare exactly.
func asOld(wr wireRequest, keys keyTable) wireRequestOld {
	old := wireRequestOld{Dim: wr.Dim, Faults: wr.Faults, LinkFaults: wr.LinkFaults, Model: wr.Model, Routing: wr.Routing, Op: wr.Op, K: wr.K}
	if ks := keys.get(wr.Keys); ks != nil {
		old.Keys = make([]int64, len(ks))
		for i, k := range ks {
			old.Keys[i] = int64(k)
		}
	}
	return old
}

// TestAnswerBytesMatchEncodingJSON pins the hand-written answers to the
// bytes encoding/json rendered for every op, failed and direct results,
// and the batch envelope.
func TestAnswerBytesMatchEncodingJSON(t *testing.T) {
	stats := hypersort.Stats{Makespan: 81234, Messages: 96, KeysSent: 3072, KeyHops: 4100, Comparisons: 9000}
	keys := []hypersort.Key{math.MinInt64, -7, 0, 3, 3, 41, math.MaxInt64}
	cases := []struct {
		name string
		op   hypersort.Op
		res  hypersort.Result
	}{
		{"sort", hypersort.OpSort, hypersort.Result{Keys: keys, Stats: stats}},
		{"sort direct", hypersort.OpSort, hypersort.Result{Keys: keys, Stats: stats, Direct: true}},
		{"sort one key", hypersort.OpSort, hypersort.Result{Keys: keys[3:4], Stats: stats}},
		{"sort no keys", hypersort.OpSort, hypersort.Result{Keys: []hypersort.Key{}, Stats: stats, Direct: true}},
		{"sort nil keys", hypersort.OpSort, hypersort.Result{}},
		{"topk", hypersort.OpTopK, hypersort.Result{Keys: keys[4:], Stats: stats}},
		{"topk direct", hypersort.OpTopK, hypersort.Result{Keys: keys[4:], Stats: stats, Direct: true}},
		{"kth", hypersort.OpKthSmallest, hypersort.Result{Value: -7, Keys: keys, Stats: stats}},
		{"kth direct", hypersort.OpKthSmallest, hypersort.Result{Value: math.MinInt64, Stats: stats, Direct: true}},
		{"median", hypersort.OpMedian, hypersort.Result{Value: 0, Stats: stats}},
		{"median direct", hypersort.OpMedian, hypersort.Result{Value: math.MaxInt64, Stats: stats, Direct: true}},
		{"error", hypersort.OpSort, hypersort.Result{Err: errors.New(`plan: faults [3 17] <&> "quoted" \ tab	nl
 ctl` + "\x01 \xff é"), Keys: keys, Stats: stats, Direct: true}},
		{"median error", hypersort.OpMedian, hypersort.Result{Err: hypersort.ErrAdmissionRejected, Value: 9}},
	}
	reqs := make([]hypersort.Request, len(cases))
	results := make([]hypersort.Result, len(cases))
	out := make([]wireResult, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := append(appendResult(nil, c.op, c.res), '\n')
			want := encodeOld(t, toWireOld(hypersort.Request{Op: c.op}, c.res))
			if !bytes.Equal(got, want) {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
		})
		reqs[i], results[i] = hypersort.Request{Op: c.op}, c.res
		out[i] = toWireOld(hypersort.Request{Op: c.op}, c.res)
	}
	t.Run("error body", func(t *testing.T) {
		msg := `unknown op "<script>"`
		got := append(appendError(nil, msg), '\n')
		if want := encodeOld(t, wireResult{Err: msg}); !bytes.Equal(got, want) {
			t.Fatalf("got  %s\nwant %s", got, want)
		}
	})
	t.Run("batch", func(t *testing.T) {
		got := append(appendBatch(nil, reqs, results), '\n')
		if want := encodeOld(t, map[string]any{"results": out}); !bytes.Equal(got, want) {
			t.Fatalf("got  %s\nwant %s", got, want)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		got := append(appendBatch(nil, nil, nil), '\n')
		if want := encodeOld(t, map[string]any{"results": []wireResult{}}); !bytes.Equal(got, want) {
			t.Fatalf("got  %s\nwant %s", got, want)
		}
	})
}

// TestServeBodyLimit: a body past the cap answers 413 with the JSON
// error body, whether its Content-Length declares it or it streams.
func TestServeBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/v1/sort", "/v1/batch"} {
		// Only the head and a few bytes are sent: the server must answer
		// from the declared length, before reading the body.
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{\"dim\":2,", path, maxBody+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || body["error"] == "" {
			t.Fatalf("%s: status %d, error body %v (%v); want 413 with an error", path, resp.StatusCode, body, err)
		}
	}
	// A chunked body has no declared length: the reader stops it at the
	// limit. The production limit is 256 MiB, so this drives the same
	// reader with a small one.
	body := `{"dim":2,"keys":[` + strings.Repeat("1,", 100) + `1]}`
	for _, limit := range []int{len(body) - 1, len(body)} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sort", strings.NewReader(body))
		req.ContentLength = -1
		buf := []byte{}
		err := readBody(&buf, httptest.NewRecorder(), req, int64(limit))
		var tooBig *http.MaxBytesError
		if over := limit < len(body); over != errors.As(err, &tooBig) {
			t.Fatalf("streamed %d-byte body, limit %d: error %v", len(body), limit, err)
		}
		if err == nil && string(buf) != body {
			t.Fatalf("streamed body read as %q", buf)
		}
	}
}

// errNotRun stands in for the result of a request too large to run
// inside a fuzz iteration.
var errNotRun = errors.New("fuzz: request not run")

// fuzzBackend runs small requests on a real engine and answers the rest
// with errNotRun, so arbitrary bodies cannot ask for a 2^24-node cube.
type fuzzBackend struct{ *hypersort.Engine }

func (b fuzzBackend) SortBatchContext(ctx context.Context, reqs []hypersort.Request) []hypersort.Result {
	out := make([]hypersort.Result, len(reqs))
	var run []hypersort.Request
	var at []int
	for i, req := range reqs {
		if req.Config.Dim > 4 || len(req.Keys) > 512 || len(req.Config.Faults)+len(req.Config.LinkFaults) > 8 {
			out[i].Err = errNotRun
			continue
		}
		run = append(run, req)
		at = append(at, i)
	}
	for j, res := range b.Engine.SortBatchContext(ctx, run) {
		out[at[j]] = res
	}
	return out
}

// FuzzServeRequest posts arbitrary bodies to /v1/sort and /v1/batch and
// holds the hand-rolled decoder to the json.Decoder it replaced: the
// same bodies accepted, the same fields decoded, and for accepted bodies
// the same status and answer bytes. The one allowed difference is bytes
// after the top-level value, which json.Decoder ignored and which now
// get a 400. No body may get a 5xx.
func FuzzServeRequest(f *testing.F) {
	eng := hypersort.NewEngine(hypersort.EngineConfig{PoolSize: 1, BatchWorkers: 2, Mode: hypersort.ModeAuto})
	f.Cleanup(eng.Close)
	be := fuzzBackend{eng}
	mux := newMux(be, nil, false, hypersort.RouteECube)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServeRequest(t, mux, be, body, false)
		checkServeRequest(t, mux, be, body, true)
	})
}

func checkServeRequest(t *testing.T, mux http.Handler, be backend, body []byte, batch bool) {
	path := "/v1/sort"
	if batch {
		path = "/v1/batch"
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}

	// The oracle: json.Decoder over the whole body, keys and all.
	dec := json.NewDecoder(bytes.NewReader(body))
	var oldReqs []wireRequestOld
	var oldErr error
	if batch {
		var env struct {
			Requests []wireRequestOld `json:"requests"`
		}
		oldErr = dec.Decode(&env)
		oldReqs = env.Requests
	} else {
		var one wireRequestOld
		oldErr = dec.Decode(&one)
		oldReqs = []wireRequestOld{one}
	}
	trailing := oldErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0

	var newReqs []wireRequestOld
	var newErr error
	if batch {
		var env wireBatch
		keys, err := decodeRequest(body, &env)
		newErr = err
		for _, wr := range env.Requests {
			newReqs = append(newReqs, asOld(wr, keys))
		}
		if env.Requests != nil && newReqs == nil {
			newReqs = []wireRequestOld{}
		}
	} else {
		var wr wireRequest
		keys, err := decodeRequest(body, &wr)
		newErr = err
		newReqs = []wireRequestOld{asOld(wr, keys)}
	}

	switch {
	case oldErr != nil || trailing:
		if newErr == nil {
			t.Fatalf("%s: %q accepted; json.Decoder rejected it (%v) or it has trailing bytes", path, body, oldErr)
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: rejected body got status %d, want 400", path, rec.Code)
		}
		return
	case newErr != nil:
		t.Fatalf("%s: %q rejected (%v); json.Decoder accepted it", path, body, newErr)
	}
	if !reflect.DeepEqual(newReqs, oldReqs) {
		t.Fatalf("%s: %q decoded as\n%+v\nwant\n%+v", path, body, newReqs, oldReqs)
	}

	// The old answer for the same decoded requests.
	var wantStatus int
	var want []byte
	if batch {
		reqs := make([]hypersort.Request, len(oldReqs))
		preErr := make([]error, len(oldReqs))
		for i, wr := range oldReqs {
			reqs[i], preErr[i] = toRequestOld(wr, hypersort.RouteECube)
		}
		results := be.SortBatchContext(context.Background(), reqs)
		out := make([]wireResult, len(results))
		for i, res := range results {
			if preErr[i] != nil {
				out[i] = wireResult{Err: preErr[i].Error()}
				continue
			}
			out[i] = toWireOld(reqs[i], res)
		}
		wantStatus, want = http.StatusOK, encodeOld(t, map[string]any{"results": out})
	} else if req, err := toRequestOld(oldReqs[0], hypersort.RouteECube); err != nil {
		wantStatus, want = http.StatusBadRequest, encodeOld(t, wireResult{Err: err.Error()})
	} else {
		res := be.SortBatchContext(context.Background(), []hypersort.Request{req})[0]
		wantStatus, want = statusFor(res.Err), encodeOld(t, toWireOld(req, res))
	}
	if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s: %q answered %d\n%s\nwant %d\n%s", path, body, rec.Code, rec.Body, wantStatus, want)
	}
}

// TestDecodeKeysContract pins the keys rules readRequest keeps from
// encoding/json, one edge case a row.
func TestDecodeKeysContract(t *testing.T) {
	const reject = "reject"
	cases := []struct {
		body string
		want any // []int64 (nil: no keys), or reject
	}{
		{`{"dim":2,"keys":[3,-1,2]}`, []int64{3, -1, 2}},
		{`{"dim":2,"KEYS":[3]}`, []int64{3}},
		{`{"dim":2,"keys":[4]}`, []int64{4}},
		{"{\"dim\":2,\"Keys\":[5]}", []int64{5}}, // Kelvin sign folds to k
		{`{"dim":2,"keys":[1],"Keys":[9,8]}`, []int64{9, 8}},
		{`{"dim":2,"keys":[1],"keys":null}`, []int64(nil)},
		{`{"dim":2,"keys":null}`, []int64(nil)},
		{`{"dim":2}`, []int64(nil)},
		{`{"dim":2,"keys":[]}`, []int64{}},
		{`{"dim":2,"keys":[null,7]}`, []int64{0, 7}},
		{`{"dim":2,"keys":[-0,-9223372036854775808,9223372036854775807]}`, []int64{0, math.MinInt64, math.MaxInt64}},
		{`{"dim":2,"model":"\"keys\":[1]","keys":[6]}`, []int64{6}},
		{`{"dim":2,"x":{"keys":"y"},"keys":[6]}`, []int64{6}},
		{`{"dim":2,"keys":[1.0]}`, reject},
		{`{"dim":2,"keys":[1e2]}`, reject},
		{`{"dim":2,"keys":[9223372036854775808]}`, reject},
		{`{"dim":2,"keys":[-9223372036854775809]}`, reject},
		{`{"dim":2,"keys":[01]}`, reject},
		{`{"dim":2,"keys":[1,]}`, reject},
		{`{"dim":2,"keys":"1"}`, reject},
		{`{"dim":2,"keys":[1]} x`, reject},
	}
	for _, c := range cases {
		var wr wireRequest
		keys, err := decodeRequest([]byte(c.body), &wr)
		if c.want == reject {
			if err == nil {
				t.Errorf("%s: accepted", c.body)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.body, err)
			continue
		}
		if got := asOld(wr, keys).Keys; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: keys %#v, want %#v", c.body, got, c.want)
		}
	}
}

// TestServeConcurrentAnswers: concurrent sorts and batches share the
// codec's buffer pool, so each answer must still carry its own
// request's keys.
func TestServeConcurrentAnswers(t *testing.T) {
	srv, _ := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 1 + (g*31+i*17)%300
				keys := make([]string, n)
				for j := range keys {
					keys[j] = strconv.Itoa(g*1_000_000 + (j*7919)%n)
				}
				one := fmt.Sprintf(`{"dim":3,"faults":[5],"keys":[%s]}`, strings.Join(keys, ","))
				path, body := "/v1/sort", one
				if i%2 == 1 {
					path, body = "/v1/batch", `{"requests":[`+one+`,`+one+`]}`
				}
				resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var results []wireResult
				if path == "/v1/batch" {
					var env struct{ Results []wireResult }
					err = json.NewDecoder(resp.Body).Decode(&env)
					results = env.Results
				} else {
					var res wireResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					results = []wireResult{res}
				}
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d, %v", path, resp.StatusCode, err)
					return
				}
				for _, res := range results {
					if len(res.Keys) != n {
						t.Errorf("%s: %d keys back, want %d (%s)", path, len(res.Keys), n, res.Err)
						return
					}
					for j, k := range res.Keys {
						if k != int64(g*1_000_000+j) {
							t.Errorf("%s: key %d is %d, want %d", path, j, k, g*1_000_000+j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
