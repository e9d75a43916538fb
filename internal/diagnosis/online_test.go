package diagnosis_test

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/diagnosis"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// fire arms inj on m and runs traffic until it fires; the run error is
// required to be an injected death.
func fire(t *testing.T, m *machine.Machine, inj machine.Injection) {
	t.Helper()
	if err := m.Arm(inj); err != nil {
		t.Fatal(err)
	}
	kernel := func(p *machine.Proc) error {
		for r := 0; r < 10; r++ {
			p.Compute(5)
			for d := 0; d < p.Dim(); d++ {
				peer := cube.FlipBit(p.ID(), d)
				if !p.InGroup(peer) {
					continue
				}
				got := p.Exchange(peer, machine.Tag(r*p.Dim()+d), []sortutil.Key{1})
				p.Release(got)
			}
		}
		return nil
	}
	if _, err := m.RunAllHealthy(kernel); !machine.IsInjectedDeath(err) {
		t.Fatalf("injection did not fire: %v", err)
	}
}

func TestOnlineRoundHealthy(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 4, Faults: cube.NewNodeSet(3)})
	res, err := diagnosis.OnlineRound(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confirmed {
		t.Fatal("static fault set within PMC bounds must decode")
	}
	if len(res.Faults) != 1 || !res.Faults.Has(3) {
		t.Fatalf("faults = %v", res.Faults.Sorted())
	}
	if res.RoundTime <= 0 {
		t.Fatalf("probe round must cost virtual time, got %d", res.RoundTime)
	}
}

func TestOnlineRoundAfterNodeDeath(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 4, Faults: cube.NewNodeSet(9)})
	fire(t, m, machine.Injection{Kind: machine.KillNode, Node: 5, At: 20})

	res, err := diagnosis.OnlineRound(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confirmed {
		t.Fatal("two faults on Q_4 are one-step diagnosable; decode must confirm")
	}
	want := cube.NewNodeSet(5, 9)
	if len(res.Faults) != 2 || !res.Faults.Has(5) || !res.Faults.Has(9) {
		t.Fatalf("faults = %v, want %v", res.Faults.Sorted(), want.Sorted())
	}
	if len(res.NewLinks) != 0 {
		t.Fatalf("no link died, got %v", res.NewLinks)
	}
}

func TestOnlineRoundDeterministic(t *testing.T) {
	round := func() diagnosis.OnlineResult {
		m := machine.MustNew(machine.Config{Dim: 4})
		fire(t, m, machine.Injection{Kind: machine.KillNode, Node: 11, At: 15})
		res, err := diagnosis.OnlineRound(m, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := round(), round()
	if a.RoundTime != b.RoundTime || a.Confirmed != b.Confirmed {
		t.Fatalf("rounds diverge: %+v vs %+v", a, b)
	}
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("fault sets diverge: %v vs %v", a.Faults.Sorted(), b.Faults.Sorted())
	}
}

func TestOnlineRoundAfterLinkDeath(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 3})
	fire(t, m, machine.Injection{Kind: machine.KillLink, Link: [2]cube.NodeID{2, 6}, At: 10})

	res, err := diagnosis.OnlineRound(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confirmed {
		t.Fatal("PMC syndromes cannot express link faults; decode must not confirm")
	}
	if len(res.Faults) != 0 {
		t.Fatalf("no processor died, got faults %v", res.Faults.Sorted())
	}
	if len(res.NewLinks) != 1 || res.NewLinks[0] != [2]cube.NodeID{2, 6} {
		t.Fatalf("NewLinks = %v", res.NewLinks)
	}
}
