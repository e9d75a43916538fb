package machine

import (
	"errors"
	"strings"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: -1}); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := New(Config{Dim: 3, Faults: cube.NewNodeSet(8)}); err == nil {
		t.Error("fault outside cube accepted")
	}
	m, err := New(Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost() != PaperCostModel() {
		t.Error("zero cost model should default to PaperCostModel")
	}
	if m.Cube().Dim() != 3 {
		t.Error("cube dim wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Dim: -2})
}

func TestHealthy(t *testing.T) {
	m := MustNew(Config{Dim: 3, Faults: cube.NewNodeSet(0, 5)})
	h := m.Healthy()
	if len(h) != 6 {
		t.Fatalf("healthy = %v", h)
	}
	for _, id := range h {
		if id == 0 || id == 5 {
			t.Error("faulty node listed healthy")
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := MustNew(Config{Dim: 3, Faults: cube.NewNodeSet(2)})
	noop := func(p *Proc) error { return nil }
	if _, err := m.Run([]cube.NodeID{9}, noop); err == nil {
		t.Error("out-of-cube participant accepted")
	}
	if _, err := m.Run([]cube.NodeID{2}, noop); err == nil {
		t.Error("faulty participant accepted")
	}
	if _, err := m.Run([]cube.NodeID{1, 1}, noop); err == nil {
		t.Error("duplicate participant accepted")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := MustNew(Config{Dim: 2, Cost: CostModel{Compare: 2, Elem: 1}})
	res, err := m.Run([]cube.NodeID{0}, func(p *Proc) error {
		p.Compute(10)
		if p.Clock() != 20 {
			t.Errorf("clock = %d, want 20", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 20 || res.Comparisons != 10 {
		t.Errorf("result = %+v", res)
	}
}

func TestSendRecvTiming(t *testing.T) {
	// One hop, 4 keys, Elem=3, Startup=20: latency 20+12 = 32.
	m := MustNew(Config{Dim: 2, Cost: CostModel{Compare: 1, Elem: 3, Startup: 20}})
	keys := []sortutil.Key{1, 2, 3, 4}
	res, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, 7, keys)
		} else {
			got := p.Recv(0, 7)
			if len(got) != 4 {
				t.Errorf("payload = %v", got)
			}
			if p.Clock() != 32 {
				t.Errorf("receiver clock = %d, want 32", p.Clock())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.KeysSent != 4 || res.KeyHops != 4 {
		t.Errorf("stats = %+v", res)
	}
}

func TestMultiHopTiming(t *testing.T) {
	// 0 -> 7 in Q_3 is 3 hops. Per hop: startup 10 + 2 keys * 5 = 20;
	// total 60.
	m := MustNew(Config{Dim: 3, Cost: CostModel{Compare: 1, Elem: 5, Startup: 10}})
	res, err := m.Run([]cube.NodeID{0, 7}, func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(7, 0, []sortutil.Key{1, 2})
		} else {
			p.Recv(0, 0)
			if p.Clock() != 60 {
				t.Errorf("clock = %d, want 60", p.Clock())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyHops != 6 {
		t.Errorf("KeyHops = %d, want 6", res.KeyHops)
	}
}

func TestSendSerializationAtSender(t *testing.T) {
	// Two back-to-back 1-hop sends of 3 keys with Elem=2, Startup=0: the
	// second message leaves after the first (injection serializes), so the
	// second arrival is 12, not 6.
	m := MustNew(Config{Dim: 1, Cost: CostModel{Compare: 1, Elem: 2}})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, 1, []sortutil.Key{1, 2, 3})
			p.Send(1, 2, []sortutil.Key{4, 5, 6})
			return nil
		}
		p.Recv(0, 1)
		first := p.Clock()
		p.Recv(0, 2)
		if p.Clock() <= first {
			t.Errorf("second message not serialized: %d then %d", first, p.Clock())
		}
		if p.Clock() != 12 {
			t.Errorf("second arrival = %d, want 12", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// Receiver asks for tag 2 before tag 1; mailbox matching must pair
	// them correctly regardless of arrival order.
	m := MustNew(Config{Dim: 1})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, 1, []sortutil.Key{11})
			p.Send(1, 2, []sortutil.Key{22})
			return nil
		}
		if got := p.Recv(0, 2); got[0] != 22 {
			t.Errorf("tag 2 payload = %v", got)
		}
		if got := p.Recv(0, 1); got[0] != 11 {
			t.Errorf("tag 1 payload = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeSymmetric(t *testing.T) {
	m := MustNew(Config{Dim: 1, Cost: CostModel{Compare: 1, Elem: 1}})
	res, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		peer := p.ID() ^ 1
		mine := []sortutil.Key{sortutil.Key(p.ID())}
		got := p.Exchange(peer, 5, mine)
		if got[0] != sortutil.Key(peer) {
			t.Errorf("node %d received %v", p.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both sides send 1 key, 1 hop: each clock = 1 (inject) then recv at
	// max(1, 1) = 1.
	if res.Makespan != 1 {
		t.Errorf("makespan = %d, want 1", res.Makespan)
	}
}

func TestKernelErrorAbortsRun(t *testing.T) {
	m := MustNew(Config{Dim: 2})
	boom := errors.New("boom")
	_, err := m.Run(m.Healthy(), func(p *Proc) error {
		if p.ID() == 2 {
			return boom
		}
		// Everyone else blocks on a message that never comes.
		p.Recv(2, 9)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	m := MustNew(Config{Dim: 1})
	_, err := m.Run(m.Healthy(), func(p *Proc) error {
		if p.ID() == 0 {
			panic("kaboom")
		}
		p.Recv(0, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

func TestSendToFaultyTotalFails(t *testing.T) {
	m := MustNew(Config{Dim: 2, Faults: cube.NewNodeSet(3), Model: Total})
	_, err := m.Run([]cube.NodeID{0}, func(p *Proc) error {
		p.Send(3, 0, nil)
		return nil
	})
	if err == nil {
		t.Error("send to totally faulty node succeeded")
	}
}

func TestPartialFaultRoutesThrough(t *testing.T) {
	// Partial model: e-cube route 0->3 passes through faulty node 1 and
	// costs the plain 2 hops.
	m := MustNew(Config{Dim: 2, Faults: cube.NewNodeSet(1), Model: Partial})
	hops, err := m.Hops(0, 3)
	if err != nil || hops != 2 {
		t.Errorf("partial hops = %d, %v", hops, err)
	}
}

func TestTotalFaultDetours(t *testing.T) {
	// Total model: 0->3 must avoid 1; the detour via 2 still costs 2 hops,
	// but if both 1 and 2 are faulty the route grows.
	m := MustNew(Config{Dim: 3, Faults: cube.NewNodeSet(1, 2), Model: Total})
	hops, err := m.Hops(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hops <= 2 {
		t.Errorf("total-model hops = %d, want detour > 2", hops)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	// A ring of exchanges across all nodes: makespan must be identical
	// across repeated runs despite goroutine scheduling.
	cfg := Config{Dim: 4, Cost: DefaultCostModel()}
	kernel := func(p *Proc) error {
		for d := 0; d < p.Dim(); d++ {
			peer := cube.FlipBit(p.ID(), d)
			keys := make([]sortutil.Key, 8)
			got := p.Exchange(peer, Tag(d), keys)
			p.Compute(len(got))
		}
		return nil
	}
	var first Time
	for trial := 0; trial < 5; trial++ {
		m := MustNew(cfg)
		res, err := m.RunAllHealthy(kernel)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Makespan
		} else if res.Makespan != first {
			t.Fatalf("trial %d makespan %d != %d", trial, res.Makespan, first)
		}
	}
}

func TestMachineReusableAcrossRuns(t *testing.T) {
	m := MustNew(Config{Dim: 2})
	kernel := func(p *Proc) error { p.Compute(5); return nil }
	for i := 0; i < 3; i++ {
		res, err := m.RunAllHealthy(kernel)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 5 {
			t.Fatalf("run %d makespan = %d (state leaked across runs?)", i, res.Makespan)
		}
	}
}

func TestSelfSendZeroCost(t *testing.T) {
	m := MustNew(Config{Dim: 2, Cost: CostModel{Compare: 1, Elem: 10, Startup: 10}})
	_, err := m.Run([]cube.NodeID{0}, func(p *Proc) error {
		p.Send(0, 0, []sortutil.Key{1})
		got := p.Recv(0, 0)
		if len(got) != 1 || p.Clock() != 0 {
			t.Errorf("self send cost clock %d, payload %v", p.Clock(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPayloadIsolation(t *testing.T) {
	// Mutating the sent slice after Send must not affect the receiver.
	m := MustNew(Config{Dim: 1})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if p.ID() == 0 {
			buf := []sortutil.Key{1, 2, 3}
			p.Send(1, 0, buf)
			buf[0] = 99
			return nil
		}
		got := p.Recv(0, 0)
		if got[0] != 1 {
			t.Errorf("payload aliased: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInGroup(t *testing.T) {
	m := MustNew(Config{Dim: 2, Faults: cube.NewNodeSet(3)})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if !p.InGroup(0) || !p.InGroup(1) || p.InGroup(2) || p.InGroup(3) {
			t.Error("InGroup wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultModelString(t *testing.T) {
	if Partial.String() != "partial" || Total.String() != "total" {
		t.Error("FaultModel strings wrong")
	}
}

// pingKernel is a tiny deterministic all-pairs exchange used by the
// Clone tests: every participant sends its id to its dimension-0 partner
// and computes once.
func pingKernel(t *testing.T) Kernel {
	return func(p *Proc) error {
		partner := cube.FlipBit(p.ID(), 0)
		if !p.InGroup(partner) {
			p.Compute(3)
			return nil
		}
		p.Send(partner, 1, []sortutil.Key{sortutil.Key(p.ID())})
		got := p.Recv(partner, 1)
		if len(got) != 1 || got[0] != sortutil.Key(partner) {
			t.Errorf("node %d: got %v from %d", p.ID(), got, partner)
		}
		p.Compute(3)
		return nil
	}
}

func TestCloneMatchesOriginal(t *testing.T) {
	orig := MustNew(Config{Dim: 4, Faults: cube.NewNodeSet(5), Model: Total, Cost: DefaultCostModel()})
	clone := orig.Clone()
	if clone == orig {
		t.Fatal("Clone returned the same machine")
	}
	if clone.Cube() != orig.Cube() || clone.Cost() != orig.Cost() || clone.Model() != orig.Model() {
		t.Fatal("clone configuration diverges")
	}
	r1, err := orig.RunAllHealthy(pingKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := clone.RunAllHealthy(pingKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Messages != r2.Messages || r1.KeyHops != r2.KeyHops {
		t.Fatalf("clone result diverges: %+v vs %+v", r1, r2)
	}
}

// TestClonesRunConcurrently is the property the engine's pool depends
// on: clones of one template may Run at the same time, independently,
// with deterministic results. Run under -race.
func TestClonesRunConcurrently(t *testing.T) {
	template := MustNew(Config{Dim: 5, Faults: cube.NewNodeSet(3, 17)})
	want, err := template.RunAllHealthy(pingKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	done := make(chan int, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			m := template.Clone()
			results[i], errs[i] = m.RunAllHealthy(pingKernel(t))
			done <- i
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Makespan != want.Makespan || results[i].Messages != want.Messages {
			t.Fatalf("worker %d diverges: %+v vs %+v", i, results[i], want)
		}
	}
}
