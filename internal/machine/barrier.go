package machine

import "sync"

// barrier synchronizes the kernel goroutines of one run and their virtual
// clocks: every participant's clock leaves the barrier set to the group
// maximum. The barrier itself is free in virtual time — it models the
// logical phase structure of an SPMD algorithm, not a timed collective
// (the algorithms under study synchronize through their data messages,
// which are priced).
//
// One mutex, one condition variable, a shared counter. The machine owns
// one barrier and re-arms it for every run. max is a running maximum
// that arm alone resets: clocks are monotone and every participant
// leaves a generation at the shared maximum, so the running maximum and
// each generation's maximum coincide.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	count   int
	gen     int
	max     Time
	aborted bool
}

// arm prepares the barrier for a run of n participants. Called with no
// kernel goroutines live.
func (b *barrier) arm(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.L = &b.mu
	b.n, b.count, b.max, b.aborted = n, 0, 0, false
}

// wait blocks until all participants have arrived, then releases them
// all with the maximum clock. ok is false if the run was aborted.
func (b *barrier) wait(t Time) (syncTime Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return 0, false
	}
	if t > b.max {
		b.max = t
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		// Last arrival: open the next generation.
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return b.max, true
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return 0, false
	}
	return b.max, true
}

// abort releases all waiters with ok=false and poisons later waits
// until the next arm. Safe to call from several goroutines.
func (b *barrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.aborted = true
	b.cond.Broadcast()
}
