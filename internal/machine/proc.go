package machine

import (
	"errors"
	"fmt"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

// Proc is one processor's view of the machine during a Run: its identity,
// virtual clock, and communication primitives. A Proc is only valid
// inside the kernel invocation it was created for and must not be shared
// across goroutines.
type Proc struct {
	m  *Machine
	nd *node
}

// procFailure carries an abort through panic so kernel code can use the
// communication primitives without threading errors everywhere; Run's
// wrapper converts it back into an error.
type procFailure struct{ err error }

// ErrAborted is reported by participants blocked in Recv when
// another participant's kernel failed.
var ErrAborted = errors.New("machine: run aborted by another participant's failure")

// runKernel executes the kernel, translating panics into errors.
func (p *Proc) runKernel(k Kernel) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pf, ok := r.(procFailure); ok {
				err = pf.err
				return
			}
			err = fmt.Errorf("machine: kernel panic on node %d: %v", p.nd.id, r)
		}
	}()
	return k(p)
}

func (p *Proc) fail(err error) {
	panic(procFailure{err: err})
}

// ID returns this processor's physical hypercube address.
func (p *Proc) ID() cube.NodeID { return p.nd.id }

// Dim returns the hypercube dimension n.
func (p *Proc) Dim() int { return p.m.h.Dim() }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.nd.clock }

// Comparisons returns the comparisons this processor has performed so
// far in the current run. Kernels take deltas of it (paired with Clock)
// to attribute work to algorithm phases.
func (p *Proc) Comparisons() int64 { return p.nd.compares }

// InGroup reports whether addr participates in the current run. Kernels
// use it to implement the paper's "skip the dead partner" rule.
func (p *Proc) InGroup(addr cube.NodeID) bool {
	return int(addr) < len(p.m.inGroup) && p.m.inGroup[addr]
}

// Compute advances the clock by n key comparisons (n * t_c). Negative n
// is a programming error and panics.
func (p *Proc) Compute(n int) {
	if s := p.m.inj.load(); s != nil {
		p.checkInjections(s)
	}
	if n < 0 {
		panic("machine: negative comparison count")
	}
	p.nd.compares += int64(n)
	p.nd.clock += Time(n) * p.m.cfg.Cost.Compare
	if p.m.cfg.Trace != nil {
		p.m.emit(TraceEvent{Node: p.nd.id, Kind: TraceCompute, Peer: p.nd.id, Keys: n, Time: p.nd.clock})
	}
}

// Send transmits keys to dst with the given tag. The send is
// asynchronous: the caller's clock advances by the first-hop injection
// cost (Startup + len*Elem), and the message arrives at the destination
// after the remaining hops' store-and-forward latency. Sending to a
// totally faulty destination, or routing failure in the Total model,
// aborts the kernel.
func (p *Proc) Send(dst cube.NodeID, tag Tag, keys []sortutil.Key) {
	// Injection check first — before validation and, crucially, before
	// payloadGet, so a dying sender cannot strand a pooled buffer.
	if s := p.m.inj.load(); s != nil {
		p.checkSendInjections(s, dst)
	}
	if !p.m.h.Contains(dst) {
		p.fail(fmt.Errorf("machine: node %d sent to %d outside the cube", p.nd.id, dst))
	}
	if p.m.cfg.Model == Total && p.m.cfg.Faults.Has(dst) {
		p.fail(fmt.Errorf("machine: node %d sent to totally faulty node %d", p.nd.id, dst))
	}
	if cs := p.m.cong; cs != nil {
		// Congestion-priced configurations (multipath routing or hot
		// links) take the path-walking branch; see congestion.go.
		p.sendCongested(cs, dst, tag, keys)
		return
	}
	var hops int
	if p.m.hamming {
		hops = cube.HammingDistance(p.nd.id, dst)
	} else {
		var err error
		hops, err = p.m.Hops(p.nd.id, dst)
		if err != nil {
			p.fail(fmt.Errorf("machine: node %d cannot reach %d: %w", p.nd.id, dst, err))
		}
	}
	c := p.m.cfg.Cost
	perHop := c.Startup + Time(len(keys))*c.Elem
	if hops > 0 {
		p.nd.clock += perHop // first-hop injection serializes at the sender
	}
	arrival := p.nd.clock + Time(hops-1)*perHop
	if hops == 0 {
		arrival = p.nd.clock
	}
	payload := p.payloadGet(len(keys))
	copy(payload, keys)
	p.nd.msgsSent++
	p.nd.keysSent += int64(len(keys))
	p.nd.keyHops += int64(len(keys)) * int64(hops)
	p.m.nodes[dst].box.put(message{src: p.nd.id, tag: tag, arrival: arrival, keys: payload})
	if p.m.cfg.Trace != nil {
		p.m.emit(TraceEvent{Node: p.nd.id, Kind: TraceSend, Peer: dst, Tag: tag, Keys: len(keys), Hops: hops, Time: p.nd.clock})
	}
}

// Recv blocks until a message with the given source and tag arrives,
// advances the clock to the message's arrival time if later, and returns
// the payload. The returned slice is owned by the caller: it may be read
// or mutated freely, and a caller that is done with it before the kernel
// returns should hand it back with Release so the next Send can reuse
// the buffer instead of allocating. Never retain a slice after releasing
// it.
func (p *Proc) Recv(src cube.NodeID, tag Tag) []sortutil.Key {
	if s := p.m.inj.load(); s != nil {
		p.checkInjections(s)
	}
	m, waited, ok := p.nd.box.take(src, tag)
	if !ok {
		p.fail(ErrAborted)
	}
	if waited {
		p.nd.recvWaits++
		// Already the slow path (this receive parked); sample mailbox depth
		// 1-in-16 per node to keep the mutex-guarded walk rare.
		if mm := p.m.cfg.Metrics; mm != nil && p.nd.recvWaits&15 == 1 {
			mm.QueueDepth.Observe(int64(p.nd.box.pending()))
		}
	}
	if m.arrival > p.nd.clock {
		p.nd.clock = m.arrival
	}
	if p.m.cfg.Trace != nil {
		p.m.emit(TraceEvent{Node: p.nd.id, Kind: TraceRecv, Peer: src, Tag: tag, Keys: len(m.keys), Time: p.nd.clock})
	}
	return m.keys
}

// Exchange performs the symmetric compare-exchange transfer: send keys to
// peer and receive the peer's keys, both under the same tag. It is the
// communication pattern of the paper's Step 7 and of every bitonic stage.
// The returned slice follows Recv's ownership rules (release when done).
func (p *Proc) Exchange(peer cube.NodeID, tag Tag, keys []sortutil.Key) []sortutil.Key {
	p.Send(peer, tag, keys)
	return p.Recv(peer, tag)
}

// Release hands a payload slice obtained from Recv back to the machine's
// buffer pool so a later Send can reuse it. After Release the caller
// must not touch the slice again — the next Send on any node of this
// machine (or a Clone) may overwrite it. Releasing is optional:
// unreleased payloads are simply garbage collected. Kernels on the hot
// path release every payload they finish reading, which keeps a run at
// O(1) payload allocations steady-state instead of O(messages).
func (p *Proc) Release(buf []sortutil.Key) { p.payloadPut(buf) }

// payloadGet acquires a payload buffer of length n: first from the
// node's private cache, then the machine-wide pool.
func (p *Proc) payloadGet(n int) []sortutil.Key {
	if n == 0 {
		return nil
	}
	nd := p.nd
	for i := nd.ncache - 1; i >= 0; i-- {
		if b := nd.cache[i]; cap(b) >= n {
			nd.ncache--
			nd.cache[i] = nd.cache[nd.ncache]
			nd.cache[nd.ncache] = nil
			return b[:n]
		}
	}
	return p.m.bufs.get(n)
}

// payloadPut releases a payload buffer into the node's private cache,
// overflowing to the machine-wide pool. Poisoning (SetReleasePoison)
// applies on this path too so the aliasing tests cover cached reuse.
func (p *Proc) payloadPut(b []sortutil.Key) {
	if cap(b) == 0 {
		return
	}
	nd := p.nd
	if nd.ncache < len(nd.cache) {
		if poisonReleased {
			b = b[:cap(b)]
			for i := range b {
				b[i] = poisonKey
			}
		}
		nd.cache[nd.ncache] = b[:0]
		nd.ncache++
		return
	}
	p.m.bufs.put(b)
}
