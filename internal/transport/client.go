package transport

// The per-shard client: a small fixed pool of connections, each
// pipelined — many requests in flight at once, matched to waiters by
// correlation ID by a reader goroutine per connection. The client also
// owns the shard's health state: any dial, write, read, or framing
// error marks the shard down (ErrShardDown), in-flight calls fail fast
// so the router can re-route to ring successors, and a background
// reprobe loop dials and probes until the shard answers again.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
)

// ErrShardDown reports that the shard behind a client is unreachable or
// mid-failure; the cluster router treats it as a signal to re-route to
// ring successors.
var ErrShardDown = errors.New("transport: shard down")

// ClientOptions configures one shard client.
type ClientOptions struct {
	// Conns is the connection-pool size. Pipelining means one
	// connection already sustains many in-flight requests; more
	// connections mainly spread kernel socket work. Default 2.
	Conns int
	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// CallTimeout is the per-request deadline applied when the
	// caller's context has none. Default 30s.
	CallTimeout time.Duration
	// ReprobeInterval is how often an unhealthy shard is probed for
	// recovery. Default 250ms.
	ReprobeInterval time.Duration
}

// Client is the proxy-side handle for one shard process. Its methods
// are the cluster router's Backend: the router holds clients directly,
// one per shard process.
type Client struct {
	addr string
	opts ClientOptions
	// tm is nil until Instrument; every consuming path guards on that.
	tm *obs.TransportMetrics

	slots []*clientConn // fixed; slots dial lazily and redial after errors
	next  atomic.Uint64 // round-robin slot cursor
	corr  atomic.Uint64 // correlation IDs, unique across the client

	healthy  atomic.Bool
	inflight atomic.Int64

	// Shard load feedback from the most recent response, consumed by
	// the router's spill/shed decisions and Retry-After hints.
	lastInflight  atomic.Int64
	lastQueueWait atomic.Int64

	closed atomic.Bool
	probeC chan struct{} // kicks the reprobe loop
	doneC  chan struct{} // closed by Close
}

// call is one in-flight request's rendezvous.
type call struct {
	done chan struct{}
	f    Frame
	err  error
}

// clientConn is one pooled connection with its reader goroutine.
type clientConn struct {
	c    *Client
	mu   sync.Mutex // guards conn/w and dialing
	conn net.Conn
	w    *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]*call
}

// NewClient returns a client for the shard at addr. The client starts
// healthy and optimistic; the first failing call flips it unhealthy and
// starts reprobing. Close stops the reprobe loop and closes the pool.
func NewClient(addr string, opts ClientOptions) *Client {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 30 * time.Second
	}
	if opts.ReprobeInterval <= 0 {
		opts.ReprobeInterval = 250 * time.Millisecond
	}
	cl := &Client{
		addr:   addr,
		opts:   opts,
		probeC: make(chan struct{}, 1),
		doneC:  make(chan struct{}),
	}
	cl.healthy.Store(true)
	cl.slots = make([]*clientConn, opts.Conns)
	for i := range cl.slots {
		cl.slots[i] = &clientConn{c: cl, pending: make(map[uint64]*call)}
	}
	go cl.reprobeLoop()
	return cl
}

// Addr returns the shard address this client dials.
func (cl *Client) Addr() string { return cl.addr }

// Instrument registers the transport bundle in r and attaches it: per
// call round-trip time, calls in flight at send, and healthy→unhealthy
// transitions. Registration is idempotent, so all clients of one proxy
// share the same series. Call before the client serves traffic.
func (cl *Client) Instrument(r *obs.Registry) { cl.tm = obs.NewTransportMetrics(r) }

// Healthy reports the shard's last known reachability.
func (cl *Client) Healthy() bool { return cl.healthy.Load() }

// Load returns the shard's in-flight gauge from its most recent
// response — the live signal the router spills and sheds on.
func (cl *Client) Load() int64 { return cl.lastInflight.Load() }

// QueueWaitNs returns the shard's reported median queue wait from its
// most recent response.
func (cl *Client) QueueWaitNs() int64 { return cl.lastQueueWait.Load() }

// Close shuts the client down: the reprobe loop exits, connections
// close, and in-flight calls fail with ErrShardDown.
func (cl *Client) Close() {
	if cl.closed.Swap(true) {
		return
	}
	close(cl.doneC)
	for _, s := range cl.slots {
		s.teardown(ErrShardDown)
	}
}

// markUnhealthy flips the health bit (counting the transition) and
// kicks the reprobe loop.
func (cl *Client) markUnhealthy() {
	if cl.healthy.Swap(false) {
		if cl.tm != nil {
			cl.tm.ShardUnhealthy.Inc()
		}
		select {
		case cl.probeC <- struct{}{}:
		default:
		}
	}
}

// reprobeLoop probes an unhealthy shard until it answers, then flips it
// back healthy. Probes ride the normal call path, so a successful probe
// also re-establishes a pooled connection.
func (cl *Client) reprobeLoop() {
	tick := time.NewTicker(cl.opts.ReprobeInterval)
	defer tick.Stop()
	for {
		select {
		case <-cl.doneC:
			return
		case <-cl.probeC:
		case <-tick.C:
		}
		if cl.healthy.Load() || cl.closed.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), cl.opts.DialTimeout)
		_, err := cl.Probe(ctx)
		cancel()
		if err == nil {
			cl.healthy.Store(true)
		}
	}
}

// absorb records the load feedback a response carried.
func (cl *Client) absorb(fb Feedback) {
	cl.lastInflight.Store(fb.Inflight)
	cl.lastQueueWait.Store(fb.QueueWaitNs)
}

// roundTrip sends one frame and waits for its response, handling
// deadline propagation, health transitions, and call bookkeeping. The
// encode callback receives (dst, corr, deadlineNs) and returns the
// encoded frame appended to dst.
func (cl *Client) roundTrip(ctx context.Context, want byte, encode func(dst []byte, corr uint64, deadline int64) []byte) (Frame, error) {
	if cl.closed.Load() {
		return Frame{}, ErrShardDown
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.opts.CallTimeout)
		defer cancel()
		deadline, _ = ctx.Deadline()
	}

	corr := cl.corr.Add(1)
	ca := &call{done: make(chan struct{})}
	slot := cl.slots[cl.next.Add(1)%uint64(len(cl.slots))]

	depth := cl.inflight.Add(1)
	defer cl.inflight.Add(-1)
	if cl.tm != nil {
		cl.tm.PipelineDepth.Observe(depth)
	}
	start := time.Now()

	if err := slot.send(corr, ca, func(dst []byte) []byte {
		return encode(dst, corr, deadline.UnixNano())
	}); err != nil {
		cl.markUnhealthy()
		return Frame{}, err
	}

	select {
	case <-ctx.Done():
		slot.forget(corr)
		return Frame{}, ctx.Err()
	case <-ca.done:
	}
	if ca.err != nil {
		cl.markUnhealthy()
		return Frame{}, ca.err
	}
	if cl.tm != nil {
		cl.tm.RTT.Observe(time.Since(start).Nanoseconds())
	}
	cl.absorb(ca.f.Feedback)
	if ca.f.Type != want {
		cl.markUnhealthy()
		return Frame{}, ErrShardDown
	}
	return ca.f, nil
}

// Do executes one request on the shard.
func (cl *Client) Do(ctx context.Context, req engine.Request) engine.Result {
	f, err := cl.roundTrip(ctx, TRes, func(dst []byte, corr uint64, deadline int64) []byte {
		return AppendRequest(dst, corr, req, deadline)
	})
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrShardDown) {
			err = errors.Join(ErrShardDown, err)
		}
		return engine.Result{Err: err}
	}
	return f.Res
}

// Probe checks shard liveness and refreshes load feedback.
func (cl *Client) Probe(ctx context.Context) (Feedback, error) {
	f, err := cl.roundTrip(ctx, TProbeAck, func(dst []byte, corr uint64, _ int64) []byte {
		return AppendProbe(dst, corr)
	})
	return f.Feedback, err
}

// InjectFault arms chaos injections on the shard.
func (cl *Client) InjectFault(cfg engine.Config, injs ...machine.Injection) error {
	f, err := cl.roundTrip(context.Background(), TAck, func(dst []byte, corr uint64, _ int64) []byte {
		return AppendInject(dst, corr, cfg, injs)
	})
	if err != nil {
		return err
	}
	return f.Err
}

// DisarmFaults clears a configuration's injections on the shard.
func (cl *Client) DisarmFaults(cfg engine.Config) error {
	f, err := cl.roundTrip(context.Background(), TAck, func(dst []byte, corr uint64, _ int64) []byte {
		return AppendDisarm(dst, corr, cfg)
	})
	if err != nil {
		return err
	}
	return f.Err
}

// Metrics fetches the shard engine's counter snapshot. Unreachable
// shards contribute a zero snapshot.
func (cl *Client) Metrics() engine.Metrics {
	f, err := cl.roundTrip(context.Background(), TMetricsAck, func(dst []byte, corr uint64, _ int64) []byte {
		return AppendMetricsReq(dst, corr)
	})
	if err != nil {
		return engine.Metrics{}
	}
	return f.Metrics
}

// send registers the call and writes its frame, dialing the slot if
// needed. On any error the slot tears down (failing all its pending
// calls) so the pipeline never stalls on a half-dead socket.
func (s *clientConn) send(corr uint64, ca *call, encode func(dst []byte) []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		if err := s.dialLocked(); err != nil {
			return errors.Join(ErrShardDown, err)
		}
	}
	s.pmu.Lock()
	s.pending[corr] = ca
	s.pmu.Unlock()

	bp := sendBufs.Get().(*[]byte)
	buf := encode((*bp)[:0])
	_, err := s.w.Write(buf)
	if err == nil {
		err = s.w.Flush()
	}
	*bp = buf[:0]
	sendBufs.Put(bp)
	if err != nil {
		s.teardownLocked(errors.Join(ErrShardDown, err))
		return errors.Join(ErrShardDown, err)
	}
	return nil
}

// forget abandons a call the caller stopped waiting for (context
// cancellation); the late response, if any, is discarded by the reader.
func (s *clientConn) forget(corr uint64) {
	s.pmu.Lock()
	delete(s.pending, corr)
	s.pmu.Unlock()
}

// dialLocked establishes the slot's connection and starts its reader.
func (s *clientConn) dialLocked() error {
	conn, err := net.DialTimeout("tcp", s.c.addr, s.c.opts.DialTimeout)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s.conn = conn
	s.w = bufio.NewWriterSize(conn, 64<<10)
	go s.readLoop(conn)
	return nil
}

// teardown fails every pending call and closes the connection; the next
// send redials.
func (s *clientConn) teardown(err error) {
	s.mu.Lock()
	s.teardownLocked(err)
	s.mu.Unlock()
}

func (s *clientConn) teardownLocked(err error) {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.w = nil
	}
	s.pmu.Lock()
	for corr, ca := range s.pending {
		delete(s.pending, corr)
		ca.err = err
		close(ca.done)
	}
	s.pmu.Unlock()
}

// readLoop decodes responses off one connection and completes their
// calls. Any read or framing error fails everything pending: responses
// are ordered only by completion, so after a framing slip no later
// correlation can be trusted.
func (s *clientConn) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var lenBuf [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			s.connFailed(conn, err)
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			s.connFailed(conn, ErrBadFrame)
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			s.connFailed(conn, err)
			return
		}
		var f Frame
		if err := DecodeFrame(&f, body); err != nil {
			s.connFailed(conn, err)
			return
		}
		s.pmu.Lock()
		ca := s.pending[f.Corr]
		delete(s.pending, f.Corr)
		s.pmu.Unlock()
		if ca == nil {
			continue // forgotten (cancelled) call
		}
		ca.f = f
		close(ca.done)
	}
}

// connFailed tears the slot down if conn is still its current
// connection (a teardown may have already replaced it).
func (s *clientConn) connFailed(conn net.Conn, err error) {
	s.mu.Lock()
	if s.conn == conn {
		s.teardownLocked(errors.Join(ErrShardDown, err))
	} else {
		conn.Close()
	}
	s.mu.Unlock()
}
