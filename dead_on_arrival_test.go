package hypersort

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/transport"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestDeadOnArrivalDirectSort: a direct-eligible sort whose context is
// already done must be refused, not served, on every substrate that
// fronts an engine — the engine itself, the in-process cluster, and a
// shard server on loopback. A cancellation cannot cross the wire, so the
// shard row sends an already-expired deadline and checks the error the
// shard answered with.
func TestDeadOnArrivalDirectSort(t *testing.T) {
	req := engine.Request{
		Config: engine.Config{Dim: 4},
		Op:     engine.OpSort,
		Keys:   workload.MustGenerate(workload.Uniform, 64, xrand.New(5)),
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancelExpired()

	eng := engine.New(1, 1)
	eng.SetMode(engine.ModeDirect)
	defer eng.Close()
	clu := cluster.New(cluster.Options{Shards: 2, Mode: engine.ModeDirect})
	defer clu.Close()
	shardEng := engine.New(1, 1)
	shardEng.SetMode(engine.ModeDirect)
	defer shardEng.Close()
	shardAddr := startShard(t, shardEng)

	cases := []struct {
		name string
		ctx  context.Context
		want error
		do   func(context.Context) engine.Result
	}{
		{"engine/cancelled", cancelled, context.Canceled, func(ctx context.Context) engine.Result { return eng.DoContext(ctx, req) }},
		{"engine/expired", expired, context.DeadlineExceeded, func(ctx context.Context) engine.Result { return eng.DoContext(ctx, req) }},
		{"cluster/cancelled", cancelled, context.Canceled, func(ctx context.Context) engine.Result { return clu.DoContext(ctx, req) }},
		{"cluster/expired", expired, context.DeadlineExceeded, func(ctx context.Context) engine.Result { return clu.DoContext(ctx, req) }},
		{"shard/expired", expired, context.DeadlineExceeded, func(ctx context.Context) engine.Result { return rawShardDo(t, shardAddr, ctx, req) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := c.do(c.ctx)
			if len(res.Keys) != 0 {
				t.Fatalf("dead-on-arrival sort was served: %d keys, err %v", len(res.Keys), res.Err)
			}
			// Errors that crossed the wire keep their message, not their
			// identity.
			if !errors.Is(res.Err, c.want) && (res.Err == nil || !strings.Contains(res.Err.Error(), c.want.Error())) {
				t.Fatalf("err = %v, want %v", res.Err, c.want)
			}
		})
	}
	if n := eng.Metrics().DirectRequests + clu.Metrics().Engine.DirectRequests + shardEng.Metrics().DirectRequests; n != 0 {
		t.Fatalf("%d dead-on-arrival sorts reached the direct substrate", n)
	}
}

// startShard serves e over the wire protocol on a loopback port until
// the test ends, returning the address.
func startShard(t *testing.T, e *engine.Engine) string {
	t.Helper()
	srv := transport.NewServer(e, transport.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return lis.Addr().String()
}

// rawShardDo sends req to the shard at addr as one request frame
// carrying ctx's deadline and returns the result frame the shard sent
// back. It bypasses transport.Client, which would give up locally on an
// expired context before reading the shard's answer.
func rawShardDo(t *testing.T, addr string, ctx context.Context, req engine.Request) engine.Result {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	deadline, _ := ctx.Deadline()
	if _, err := conn.Write(transport.AppendRequest(nil, 1, req, deadline.UnixNano())); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	var f transport.Frame
	if err := transport.DecodeFrame(&f, body); err != nil {
		t.Fatal(err)
	}
	return f.Res
}
