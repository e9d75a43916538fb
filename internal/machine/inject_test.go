package machine_test

import (
	"errors"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// exchangeKernel is a small all-dimensions neighbor-exchange program:
// enough traffic that any mid-run casualty is observed by its partners,
// with rounds of compute so victim clocks actually advance.
func exchangeKernel(rounds int) machine.Kernel {
	return func(p *machine.Proc) error {
		buf := []sortutil.Key{sortutil.Key(p.ID())}
		for r := 0; r < rounds; r++ {
			p.Compute(3)
			for d := 0; d < p.Dim(); d++ {
				peer := cube.FlipBit(p.ID(), d)
				if !p.InGroup(peer) {
					continue
				}
				got := p.Exchange(peer, machine.Tag(r*p.Dim()+d), buf)
				p.Release(got)
			}
		}
		return nil
	}
}

func TestKillNodeAtVirtualTime(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 3})
	victim := cube.NodeID(5)
	if err := m.Arm(machine.Injection{Kind: machine.KillNode, Node: victim, At: 10}); err != nil {
		t.Fatal(err)
	}

	_, err := m.RunAllHealthy(exchangeKernel(20))
	var died machine.ProcessorDiedError
	if !errors.As(err, &died) {
		t.Fatalf("want ProcessorDiedError, got %v", err)
	}
	if died.Node != victim {
		t.Fatalf("wrong victim: got %d want %d", died.Node, victim)
	}
	if died.At < 10 {
		t.Fatalf("fired before trigger time: At=%d", died.At)
	}
	if !machine.IsInjectedDeath(err) {
		t.Fatal("IsInjectedDeath must recognize the run error")
	}

	// Permanent death: a second run listing the victim fails fast.
	if _, err := m.RunAllHealthy(exchangeKernel(20)); !errors.As(err, &died) {
		t.Fatalf("second run: want ProcessorDiedError, got %v", err)
	}

	// Survivors and FiredFaults reflect the casualty.
	nodes, links := m.FiredFaults()
	if len(nodes) != 1 || nodes[0] != victim || len(links) != 0 {
		t.Fatalf("FiredFaults = %v, %v", nodes, links)
	}
	for _, id := range m.Survivors() {
		if id == victim {
			t.Fatal("victim listed as survivor")
		}
	}

	// The survivors can still run together.
	if _, err := m.Run(m.Survivors(), exchangeKernel(5)); err != nil {
		t.Fatalf("survivor run: %v", err)
	}

	// Disarm resurrects the whole cube.
	m.DisarmInjections()
	if _, err := m.RunAllHealthy(exchangeKernel(5)); err != nil {
		t.Fatalf("post-disarm run: %v", err)
	}
}

func TestKillNodeAfterMessagesIsDeterministic(t *testing.T) {
	run := func() machine.Time {
		m := machine.MustNew(machine.Config{Dim: 3})
		if err := m.Arm(machine.Injection{Kind: machine.KillNode, Node: 2, AfterMessages: 7}); err != nil {
			t.Fatal(err)
		}
		_, err := m.RunAllHealthy(exchangeKernel(20))
		var died machine.ProcessorDiedError
		if !errors.As(err, &died) {
			t.Fatalf("want ProcessorDiedError, got %v", err)
		}
		if died.Node != 2 {
			t.Fatalf("wrong victim %d", died.Node)
		}
		return died.At
	}
	first := run()
	for i := 0; i < 3; i++ {
		if at := run(); at != first {
			t.Fatalf("send-count trigger fired at different virtual times: %d vs %d", at, first)
		}
	}
}

func TestKillLink(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 3})
	link := [2]cube.NodeID{0, 1}
	if err := m.Arm(machine.Injection{Kind: machine.KillLink, Link: link, At: 5}); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunAllHealthy(exchangeKernel(20))
	var died machine.LinkDiedError
	if !errors.As(err, &died) {
		t.Fatalf("want LinkDiedError, got %v", err)
	}
	if died.Link != link {
		t.Fatalf("wrong link %v", died.Link)
	}
	nodes, links := m.FiredFaults()
	if len(nodes) != 0 || len(links) != 1 || links[0] != link {
		t.Fatalf("FiredFaults = %v, %v", nodes, links)
	}
	// No processor died, so every node survives; runs that avoid the
	// severed edge still work.
	if len(m.Survivors()) != 8 {
		t.Fatalf("survivors = %v", m.Survivors())
	}
	avoiding := func(p *machine.Proc) error {
		p.Compute(1)
		for d := 0; d < p.Dim(); d++ {
			peer := cube.FlipBit(p.ID(), d)
			if p.LinkDead(p.ID(), peer) || !p.InGroup(peer) {
				continue
			}
			got := p.Exchange(peer, machine.Tag(d), []sortutil.Key{1})
			p.Release(got)
		}
		return nil
	}
	if _, err := m.RunAllHealthy(avoiding); err != nil {
		t.Fatalf("link-avoiding run: %v", err)
	}
}

func TestArmValidation(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 3, Faults: cube.NewNodeSet(1)})
	bad := []machine.Injection{
		{Kind: machine.KillNode, Node: 99},                                     // outside the cube
		{Kind: machine.KillNode, Node: 1},                                      // already faulty
		{Kind: machine.KillNode, Node: 2, At: -1},                              // negative trigger
		{Kind: machine.KillLink, Link: [2]cube.NodeID{0, 3}},                   // not an edge
		{Kind: machine.KillLink, Link: [2]cube.NodeID{0, 99}},                  // endpoint outside
		{Kind: machine.KillLink, Link: [2]cube.NodeID{0, 1}, AfterMessages: 2}, // wrong trigger kind
		{Kind: machine.InjectionKind(9), Node: 2},                              // unknown kind
	}
	for i, inj := range bad {
		if err := m.Arm(inj); err == nil {
			t.Errorf("case %d: Arm accepted invalid injection %+v", i, inj)
		}
	}
	if s := m.Survivors(); len(s) != 7 {
		t.Fatalf("rejected arms must not change state; survivors=%v", s)
	}
}

func TestCloneSharesInjector(t *testing.T) {
	template := machine.MustNew(machine.Config{Dim: 3})
	clone := template.Clone()
	// Arm on the template AFTER the clone exists: the shared injector
	// must still cover the clone (the pool-arming contract).
	if err := template.Arm(machine.Injection{Kind: machine.KillNode, Node: 6, At: 0}); err != nil {
		t.Fatal(err)
	}
	_, err := clone.RunAllHealthy(exchangeKernel(5))
	var died machine.ProcessorDiedError
	if !errors.As(err, &died) || died.Node != 6 {
		t.Fatalf("clone run: want node 6 death, got %v", err)
	}
}
