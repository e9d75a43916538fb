package machine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// runTask is the descriptor Run hands a node's persistent worker: the
// kernel to execute and the prepared Proc for this run. The worker
// executes exactly one task per Run.
type runTask struct {
	kernel Kernel
	proc   *Proc
	slot   int
	rs     *runState
}

// runState is the shared coordination state of one Run, owned by the
// machine and reused across runs. It deliberately holds the abort fan-out
// targets (nodes, barrier) rather than the Machine itself so that a
// worker never keeps its Machine reachable between tasks — idle workers
// must not defeat the Close finalizer.
type runState struct {
	wg   sync.WaitGroup
	errs []error
	// nodes and bar are the abort fan-out for the current run; rearmed by
	// RunInto before dispatch.
	nodes    []*node
	bar      runBarrier
	aborting atomic.Bool
}

// fail records a participant's error and aborts the run exactly once,
// waking every peer blocked in Recv or Barrier.
func (rs *runState) fail(slot int, err error) {
	rs.errs[slot] = err
	if rs.aborting.CompareAndSwap(false, true) {
		rs.bar.abort()
		for _, nd := range rs.nodes {
			nd.box.abort()
		}
	}
}

// firstError selects the error to report for a finished run, preferring
// the root-cause failure over the ErrAborted echoes it triggered in the
// other participants. Called after wg.Wait, with no workers active.
func (rs *runState) firstError() error {
	var firstErr error
	for _, err := range rs.errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, ErrAborted) && !errors.Is(err, ErrAborted)) {
			firstErr = err
		}
	}
	return firstErr
}

// workerLoop is one node's persistent kernel executor. Workers are
// spawned once per machine (lazily, at the first Run) and reused across
// runs, so steady-state engine traffic pays a channel handoff instead of
// a goroutine spawn, and the worker keeps its warmed-up stack — kernels
// recurse through merge trees, and re-growing a fresh 8 KiB stack every
// run was a measurable share of the old substrate's cost.
//
// The loop deliberately references only its two channels and, while
// executing, the task descriptor: never the Machine. That keeps an idle
// machine collectible, letting the Close finalizer retire leaked workers
// (see Machine.Close).
func workerLoop(work <-chan runTask, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case t := <-work:
			runTaskBody(t)
			t.rs.wg.Done()
		}
	}
}

// runTaskBody executes one task, reporting any failure into the shared
// run state. Factored out so the persistent worker loop and the one-shot
// path stay byte-identical in behaviour.
func runTaskBody(t runTask) {
	if err := t.proc.runKernel(t.kernel); err != nil {
		t.rs.fail(t.slot, err)
	}
}

// runOneShot executes a single task on a throwaway goroutine. A machine's
// first Run uses these: experiment sweeps build thousands of machines
// that each run exactly once, and for them persistent workers would be
// pure overhead (spawn + teardown + finalizer bookkeeping with no reuse
// to amortize it). The second Run on a machine upgrades to the
// persistent pool.
func runOneShot(t runTask) {
	runTaskBody(t)
	t.rs.wg.Done()
}

// startWorkers spawns the persistent workers, once. Only healthy nodes
// get one — faulty processors never execute kernels.
func (m *Machine) startWorkers() {
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	for _, id := range m.healthy {
		nd := m.nodes[id]
		if nd.work == nil {
			nd.work = make(chan runTask, 1)
		}
		go workerLoop(nd.work, m.stop)
	}
	// Safety net for machines that are dropped without Close (experiment
	// sweeps build thousands of short-lived machines): once the Machine
	// is unreachable the finalizer retires its workers. This is why
	// workers must never reference the Machine while idle.
	runtime.SetFinalizer(m, (*Machine).Close)
}

// Close retires the machine's persistent worker goroutines. It must not
// be called while a Run is in flight. Close is idempotent, and the
// machine remains usable: a later Run simply respawns the workers.
// Machines that are dropped without Close are cleaned up by a finalizer,
// so calling it is an optimization (prompt teardown, e.g. on server
// shutdown), not an obligation.
func (m *Machine) Close() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	m.stop = nil
	runtime.SetFinalizer(m, nil)
}
