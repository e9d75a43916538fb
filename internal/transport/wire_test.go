package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// body strips the 4-byte length prefix off an encoded frame and checks
// the prefix against the actual body length.
func body(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	n := binary.LittleEndian.Uint32(frame)
	if int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, body is %d bytes", n, len(frame)-4)
	}
	return frame[4:]
}

func testConfig() engine.Config {
	return engine.Config{
		Dim:        6,
		Faults:     []cube.NodeID{3, 17, 40},
		LinkFaults: [][2]cube.NodeID{{0, 1}, {5, 7}},
		Model:      machine.Total,
		Cost:       machine.CostModel{Compare: 1, Elem: 2, Startup: 50},
		Routing:    machine.RouteMultipath,
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := engine.Request{
		Config: testConfig(),
		Op:     engine.OpTopK,
		K:      12,
		Keys:   []sortutil.Key{5, -3, 0, 1 << 62, -(1 << 62), 42},
	}
	frame := AppendRequest(nil, 77, req, 123456789)
	var f Frame
	if err := DecodeFrame(&f, body(t, frame)); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if f.Type != TReq || f.Corr != 77 || f.Deadline != 123456789 {
		t.Fatalf("header = (%d, %d, %d), want (TReq, 77, 123456789)", f.Type, f.Corr, f.Deadline)
	}
	if !reflect.DeepEqual(f.Req, req) {
		t.Fatalf("request round-trip mismatch:\n got %+v\nwant %+v", f.Req, req)
	}
}

// TestConfigLayout pins the version 3 config bytes: dim, model and
// routing, the three cost constants, then the fault and link-fault
// lists.
func TestConfigLayout(t *testing.T) {
	got := appendConfig(nil, testConfig())
	want := []byte{
		6,    // dim
		1, 1, // model Total, routing multipath
		1, 2, 50, // cost: compare, elem, startup
		3, 3, 17, 40, // three faults
		2, 0, 1, 5, 7, // two link faults
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("config bytes = %v, want %v", got, want)
	}
}

// TestUnknownEnumsCrossTheWire: a fault model or routing policy byte the
// engine does not define survives the wire unchanged, and the shard's
// engine refuses the request with its validation error; the
// connection stays up for the next request.
func TestUnknownEnumsCrossTheWire(t *testing.T) {
	addr, _ := startServer(t, engine.New(1, 1), ServerOptions{})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()
	keys := []sortutil.Key{3, 1, 2}
	for _, tc := range []struct {
		cfg  engine.Config
		want string
	}{
		{engine.Config{Dim: 3, Model: 7}, "engine: unknown fault model 7"},
		{engine.Config{Dim: 3, Routing: 9}, "engine: unknown routing policy 9"},
	} {
		req := engine.Request{Config: tc.cfg, Op: engine.OpSort, Keys: keys}
		var f Frame
		if err := DecodeFrame(&f, body(t, AppendRequest(nil, 1, req, 0))); err != nil {
			t.Fatalf("%+v: DecodeFrame: %v", tc.cfg, err)
		}
		if !reflect.DeepEqual(f.Req, req) {
			t.Fatalf("request round-trip mismatch:\n got %+v\nwant %+v", f.Req, req)
		}
		if res := cl.Do(context.Background(), req); res.Err == nil || res.Err.Error() != tc.want {
			t.Fatalf("%+v over the wire: err %v, want %q", tc.cfg, res.Err, tc.want)
		}
	}
	if res := cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 3}, Op: engine.OpSort, Keys: keys}); res.Err != nil {
		t.Fatalf("valid request after the rejections: %v", res.Err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := engine.Result{
		Keys:   []sortutil.Key{-9, -1, 0, 4, 4, 99},
		Value:  -123,
		Direct: true,
		Res: machine.Result{
			Makespan: 1000, Messages: 12, KeysSent: 300, KeyHops: 900,
			Comparisons: 4500, RecvWaits: 3, LinkWait: 77, MaxLinkOccupancy: 5,
			StripedSends: 2,
		},
	}
	fb := Feedback{Inflight: 9, QueueWaitNs: 12345}
	frame := AppendResult(nil, 5, res, fb)
	var f Frame
	if err := DecodeFrame(&f, body(t, frame)); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(f.Res, res) {
		t.Fatalf("result round-trip mismatch:\n got %+v\nwant %+v", f.Res, res)
	}
	if f.Feedback != fb {
		t.Fatalf("feedback = %+v, want %+v", f.Feedback, fb)
	}
}

// TestErrorRoundTrip pins the property the HTTP layer depends on: an
// admission rejection or unrecoverable casualty on the shard side keeps
// its errors.Is identity after crossing the wire.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
	}{
		{"admission", errors.Join(errors.New("queue full"), engine.ErrAdmissionRejected), engine.ErrAdmissionRejected},
		{"unrecoverable", errors.Join(errors.New("no plan"), engine.ErrUnrecoverable), engine.ErrUnrecoverable},
		{"generic", errors.New("boom"), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := AppendResult(nil, 1, engine.Result{Err: c.err}, Feedback{})
			var f Frame
			if err := DecodeFrame(&f, body(t, frame)); err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if f.Res.Err == nil {
				t.Fatal("error did not survive the wire")
			}
			if f.Res.Err.Error() != c.err.Error() {
				t.Fatalf("message = %q, want %q", f.Res.Err.Error(), c.err.Error())
			}
			if c.sentinel != nil && !errors.Is(f.Res.Err, c.sentinel) {
				t.Fatalf("decoded error lost its %v identity", c.sentinel)
			}
			if c.sentinel == nil &&
				(errors.Is(f.Res.Err, engine.ErrAdmissionRejected) || errors.Is(f.Res.Err, engine.ErrUnrecoverable)) {
				t.Fatal("generic error gained a sentinel identity")
			}
		})
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	fb := Feedback{Inflight: 4, QueueWaitNs: 777}

	var f Frame
	if err := DecodeFrame(&f, body(t, AppendProbe(nil, 11))); err != nil || f.Type != TProbe || f.Corr != 11 {
		t.Fatalf("probe: %v %+v", err, f)
	}
	if err := DecodeFrame(&f, body(t, AppendProbeAck(nil, 11, fb))); err != nil || f.Feedback != fb {
		t.Fatalf("probe-ack: %v %+v", err, f)
	}

	cfg := testConfig()
	injs := []machine.Injection{
		{Kind: machine.KillNode, Node: 5, At: 120},
		{Kind: machine.KillLink, Link: [2]cube.NodeID{0, 1}, AfterMessages: 7},
	}
	if err := DecodeFrame(&f, body(t, AppendInject(nil, 3, cfg, injs))); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if !reflect.DeepEqual(f.Cfg, cfg) || !reflect.DeepEqual(f.Injs, injs) {
		t.Fatalf("inject round-trip mismatch: %+v / %+v", f.Cfg, f.Injs)
	}
	if err := DecodeFrame(&f, body(t, AppendDisarm(nil, 4, cfg))); err != nil || !reflect.DeepEqual(f.Cfg, cfg) {
		t.Fatalf("disarm: %v %+v", err, f.Cfg)
	}

	if err := DecodeFrame(&f, body(t, AppendAck(nil, 9, nil, fb))); err != nil || f.Err != nil || f.Feedback != fb {
		t.Fatalf("ok ack: %v %+v", err, f)
	}
	ackErr := errors.Join(errors.New("refused"), engine.ErrAdmissionRejected)
	if err := DecodeFrame(&f, body(t, AppendAck(nil, 9, ackErr, fb))); err != nil {
		t.Fatalf("err ack: %v", err)
	}
	if f.Err == nil || !errors.Is(f.Err, engine.ErrAdmissionRejected) {
		t.Fatalf("ack error lost identity: %v", f.Err)
	}

	m := engine.Metrics{Requests: 10, PlanHits: 9, DirectRequests: 8, ParityBreaks: 1}
	if err := DecodeFrame(&f, body(t, AppendMetricsAck(nil, 2, m, fb))); err != nil {
		t.Fatalf("metrics-ack: %v", err)
	}
	if f.Metrics != m {
		t.Fatalf("metrics round-trip = %+v, want %+v", f.Metrics, m)
	}
}

// TestDecodeRejectsMalformed spot-checks the structured failure modes;
// FuzzDecodeFrame covers the rest of the input space.
func TestDecodeRejectsMalformed(t *testing.T) {
	good := body(t, AppendProbeAck(nil, 1, Feedback{Inflight: 2, QueueWaitNs: 3}))
	var f Frame
	// A request body up to (but excluding) the key payload: header,
	// op/K/deadline, and a zero-valued config.
	reqPrefix := []byte{Version, TReq, 1, byte(engine.OpSort),
		0, 0, // K, deadline
		0, 0, 0, // dim, model, routing
		0, 0, 0, // cost
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {9, TProbe, 1},
		"unknown type": {Version, 200, 1},
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0),
		// Counts wildly exceeding the remaining bytes must fail fast,
		// BEFORE any allocation sized by them.
		"huge fault count": binary.AppendUvarint(append([]byte{}, reqPrefix...), 1<<40),
		"huge key count": binary.AppendUvarint(append(append([]byte{}, reqPrefix...),
			0, 0), 1<<40), // zero faults, zero link faults, then the key count
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if err := DecodeFrame(&f, b); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeFrame(%x) = %v, want ErrBadFrame", b, err)
			}
		})
	}
}

// TestDecodeReusesKeyBuffers pins the allocation contract the proxy hot
// path depends on: decoding into a Frame whose key slices have capacity
// does not allocate new ones.
func TestDecodeReusesKeyBuffers(t *testing.T) {
	req := engine.Request{Config: engine.Config{Dim: 3}, Op: engine.OpSort, Keys: make([]sortutil.Key, 64)}
	frame := body(t, AppendRequest(nil, 1, req, 0))
	var f Frame
	f.Req.Keys = make([]sortutil.Key, 0, 128)
	first := &f.Req.Keys[:1][0]
	if err := DecodeFrame(&f, frame); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if &f.Req.Keys[0] != first {
		t.Fatal("decode reallocated a key buffer that had capacity")
	}
}

// TestKeyPayloadIsLittleEndian pins the on-wire byte order so both
// endiannesses of host interoperate.
func TestKeyPayloadIsLittleEndian(t *testing.T) {
	frame := AppendResult(nil, 1, engine.Result{Keys: []sortutil.Key{0x0102030405060708}}, Feedback{})
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if !bytes.HasSuffix(frame, want) {
		t.Fatalf("key payload suffix = %x, want %x", frame[len(frame)-8:], want)
	}
}
