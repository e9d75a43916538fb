package machine

import (
	"runtime"
	"sync"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

// message is one point-to-point transfer. arrival is the virtual time the
// last byte reaches the destination under the cost model.
type message struct {
	src     cube.NodeID
	tag     Tag
	arrival Time
	keys    []sortutil.Key
}

// mailbox is an MPI-style receive queue with (source, tag) matching.
// Sends never block; receives block until a matching message is present
// or the run is aborted.
//
// One mutex guards one queue per node; the receiver parks on a
// capacity-1 notify channel. Logical semantics are those of an unbounded
// queue: kernels exchange O(1) outstanding messages per peer, and an
// algorithmic bug shows up as an observable stuck queue rather than a
// silent deadlock.
type mailbox struct {
	mu sync.Mutex
	q  []message
	// parked is set by the receiver, under mu, just before it blocks on
	// notify. A producer that enqueues while it is set clears it and
	// posts the wakeup; since both sides hold mu, either the receiver's
	// last scan saw the message or the producer sees parked.
	parked  bool
	aborted bool
	notify  chan struct{}
}

func newMailbox() mailbox { return mailbox{notify: make(chan struct{}, 1)} }

// put enqueues a message and wakes the receiver if it is parked.
func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	wake := mb.parked
	mb.parked = false
	mb.mu.Unlock()
	if wake {
		mb.wake()
	}
}

// wake posts the receiver's wakeup token (non-blocking: a pending token
// already guarantees the receiver will re-check).
func (mb *mailbox) wake() {
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// abort wakes a blocked receiver; its take call returns ok=false.
func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	mb.mu.Unlock()
	mb.wake()
}

// take removes and returns the first message matching (src, tag),
// blocking until one arrives. waited reports whether the caller had to
// block. ok is false if the run was aborted while waiting. Called only by
// the owning node's kernel goroutine.
func (mb *mailbox) take(src cube.NodeID, tag Tag) (m message, waited, ok bool) {
	spun := false
	for {
		mb.mu.Lock()
		if mb.aborted {
			mb.mu.Unlock()
			return message{}, waited, false
		}
		for i := range mb.q {
			if mb.q[i].src == src && mb.q[i].tag == tag {
				m := mb.q[i]
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				mb.mu.Unlock()
				return m, waited, true
			}
		}
		// Adaptive wait: yield once before parking. In the dominant
		// exchange ping-pong the partner is already runnable and sends
		// within one scheduling round, so the re-check after Gosched
		// usually hits — skipping the park/wake round trip entirely.
		// Only genuinely long waits (a slow peer several steps behind)
		// fall through to the park.
		mb.parked = spun
		mb.mu.Unlock()
		waited = true
		if !spun {
			spun = true
			runtime.Gosched()
			continue
		}
		<-mb.notify
	}
}

// reset clears the queue and the abort flag between runs, handing any
// undelivered payloads back to bufs. Called with no kernel goroutines
// live.
func (mb *mailbox) reset(bufs *keyPool) {
	for _, msg := range mb.q {
		bufs.put(msg.keys)
	}
	clear(mb.q)
	mb.q = mb.q[:0]
	mb.parked, mb.aborted = false, false
	select {
	case <-mb.notify: // drop a stale wakeup token
	default:
	}
}

// pending returns the number of queued messages (diagnostics and the
// sampled queue-depth metric).
func (mb *mailbox) pending() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.q)
}
