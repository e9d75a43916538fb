package machine

import (
	"runtime"
	"testing"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

// countKernel is a trivial kernel that touches the clock so runs are
// observable.
func countKernel(p *Proc) error {
	p.Compute(1)
	return nil
}

// failOnFive panics on node 5; every other node blocks on a message that
// never comes and must be released by the abort fan-out.
func failOnFive(p *Proc) error {
	if p.ID() == 5 {
		panic("deliberate kernel failure")
	}
	p.Recv(cube.NodeID(5), 99)
	return nil
}

// TestRunsLeaveNoGoroutines pins that a Machine holds no goroutines
// between runs: after repeated runs and an aborted one, with no Close,
// the process returns to its goroutine baseline.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := MustNew(Config{Dim: 3})
	all := m.Healthy()
	for run := 0; run < 3; run++ {
		if _, err := m.Run(all, countKernel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(all, failOnFive); err == nil {
		t.Fatal("failing run reported no error")
	}
	// A goroutine exits just after its wg.Done, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines = %d after runs, want <= %d", got, base)
	}
	runtime.KeepAlive(m)
}

// TestRunAfterAbortSucceeds: an aborted run must leave the machine
// consistent, so the next run on it succeeds.
func TestRunAfterAbortSucceeds(t *testing.T) {
	m := MustNew(Config{Dim: 3})
	all := m.Healthy()
	for run := 0; run < 2; run++ {
		if _, err := m.Run(all, countKernel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(all, failOnFive); err == nil {
		t.Fatal("failing run reported no error")
	}
	res, err := m.Run(all, countKernel)
	if err != nil {
		t.Fatalf("run after abort: %v", err)
	}
	if res.Comparisons != int64(len(all)) {
		t.Fatalf("run after abort: comparisons = %d, want %d", res.Comparisons, len(all))
	}
}

// cubeExchangeKernel touches every run-state path a warm run reuses: a
// message both ways on every cube dimension (mailbox and payload
// buffers) and compute.
func cubeExchangeKernel(p *Proc) error {
	keys := [4]sortutil.Key{1, 2, 3, 4}
	for d := 0; d < p.Dim(); d++ {
		peer := p.ID() ^ cube.NodeID(1<<d)
		p.Release(p.Exchange(peer, Tag(d), keys[:]))
	}
	p.Compute(len(keys))
	return nil
}

// TestWarmRunIntoAllocatesNothing pins the steady-state cost of a run:
// with a reused PerNode map, a warm RunInto on Q_3 allocates nothing,
// goroutine starts included.
func TestWarmRunIntoAllocatesNothing(t *testing.T) {
	m := MustNew(Config{Dim: 3})
	all := m.Healthy()
	perNode := make(map[cube.NodeID]Time, len(all))
	run := func() {
		if _, err := m.RunInto(all, cubeExchangeKernel, perNode); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm RunInto allocated %v times per run, want 0", allocs)
	}
}
