package machine

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

// TestStressQ8AllHealthy runs 256 concurrent processor goroutines through
// a full dimension sweep of exchanges — a scheduler stress test for the
// mailbox and clock machinery (the paper's machines top out at Q_6; the
// simulator should comfortably exceed that).
func TestStressQ8AllHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("256-goroutine stress run")
	}
	m := MustNew(Config{Dim: 8, Cost: DefaultCostModel()})
	res, err := m.RunAllHealthy(func(p *Proc) error {
		keys := make([]sortutil.Key, 32)
		for d := 0; d < p.Dim(); d++ {
			got := p.Exchange(cube.FlipBit(p.ID(), d), Tag(d), keys)
			p.Compute(len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 256*8 {
		t.Errorf("messages = %d, want %d", res.Messages, 256*8)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// TestStressQ10RepeatedRuns reuses one large machine across several runs,
// checking state resets cleanly at 1024 nodes.
func TestStressQ10RepeatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-goroutine stress run")
	}
	m := MustNew(Config{Dim: 10})
	var first Time
	for trial := 0; trial < 3; trial++ {
		res, err := m.RunAllHealthy(func(p *Proc) error {
			peer := cube.FlipBit(p.ID(), trialDim(p.ID()))
			p.Exchange(peer, 1, []sortutil.Key{sortutil.Key(p.ID())})
			p.Compute(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Makespan
		} else if res.Makespan != first {
			t.Fatalf("run %d makespan %d != %d (state leak)", trial, res.Makespan, first)
		}
	}
}

// trialDim picks a deterministic dimension per node so exchanges pair up
// (both endpoints derive the same dimension from the lower address).
func trialDim(id cube.NodeID) int { return 0 }

func TestComputeNegativePanicsIntoError(t *testing.T) {
	m := MustNew(Config{Dim: 1})
	_, err := m.Run([]cube.NodeID{0}, func(p *Proc) error {
		p.Compute(-1)
		return nil
	})
	if err == nil {
		t.Error("negative Compute did not fail the run")
	}
}

func TestHopsToAndSendOutsideCube(t *testing.T) {
	m := MustNew(Config{Dim: 3})
	if hops, err := m.Hops(0, 7); err != nil || hops != 3 {
		t.Errorf("Hops(0, 7) = %d, %v; want 3", hops, err)
	}
	_, err := m.Run([]cube.NodeID{0}, func(p *Proc) error {
		p.Send(9, 0, nil)
		return nil
	})
	if err == nil {
		t.Error("send outside cube did not fail")
	}
}

func TestMailboxPending(t *testing.T) {
	mb := newMailbox()
	if mb.pending() != 0 {
		t.Error("fresh mailbox not empty")
	}
	mb.put(message{src: 1, tag: 2})
	if mb.pending() != 1 {
		t.Error("pending wrong after put")
	}
	if _, _, ok := mb.take(1, 2); !ok {
		t.Error("take failed")
	}
	if mb.pending() != 0 {
		t.Error("pending wrong after take")
	}
}

// TestMailboxFIFOAndOutOfOrderTags queues many messages on one link,
// then checks per-(src, tag) FIFO order and out-of-order tag matching.
func TestMailboxFIFOAndOutOfOrderTags(t *testing.T) {
	const msgs = 40
	mb := newMailbox()
	for i := 0; i < msgs; i++ {
		mb.put(message{src: 1, tag: 7, arrival: Time(i)})
	}
	if got := mb.pending(); got != msgs {
		t.Fatalf("pending = %d, want %d", got, msgs)
	}
	for i := 0; i < msgs; i++ {
		m, _, ok := mb.take(1, 7)
		if !ok || m.arrival != Time(i) {
			t.Fatalf("message %d: got arrival %d (ok=%v), want %d", i, m.arrival, ok, i)
		}
	}

	// Distinct tags received in reverse order: every earlier message
	// must survive the scan.
	for i := 0; i < msgs; i++ {
		mb.put(message{src: 1, tag: Tag(i), arrival: Time(i)})
	}
	for i := msgs - 1; i >= 0; i-- {
		m, _, ok := mb.take(1, Tag(i))
		if !ok || m.arrival != Time(i) {
			t.Fatalf("tag %d: got arrival %d (ok=%v)", i, m.arrival, ok)
		}
	}
	if got := mb.pending(); got != 0 {
		t.Fatalf("pending = %d after draining, want 0", got)
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceSend.String() != "send" || TraceRecv.String() != "recv" || TraceCompute.String() != "compute" {
		t.Error("TraceKind strings wrong")
	}
	if TraceKind(9).String() != "unknown" {
		t.Error("unknown kind string wrong")
	}
}
