package machine

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

// exchangeKernel sends each participant's payload to its dimension-0
// partner and receives the partner's — the shape of one compare-split
// round, large enough to clear the striping threshold.
func exchangeKernel(size int) Kernel {
	return func(p *Proc) error {
		partner := cube.FlipBit(p.ID(), 0)
		payload := make([]sortutil.Key, size)
		for i := range payload {
			payload[i] = sortutil.Key(int(p.ID())*size + i)
		}
		p.Send(partner, 1, payload)
		got := p.Recv(partner, 1)
		if len(got) != size {
			p.fail(errTest)
		}
		return nil
	}
}

var errTest = errInvalid("congestion test: wrong payload length")

type errInvalid string

func (e errInvalid) Error() string { return string(e) }

// sameCounters compares the scalar accounting of two Results (Result
// holds a per-node map, so it is not directly comparable).
func sameCounters(a, b Result) bool {
	return a.Makespan == b.Makespan && a.Messages == b.Messages &&
		a.KeysSent == b.KeysSent && a.KeyHops == b.KeyHops &&
		a.Comparisons == b.Comparisons && a.LinkWait == b.LinkWait &&
		a.MaxLinkOccupancy == b.MaxLinkOccupancy && a.StripedSends == b.StripedSends
}

func allNodes(dim int) []cube.NodeID {
	ids := make([]cube.NodeID, 1<<dim)
	for i := range ids {
		ids[i] = cube.NodeID(i)
	}
	return ids
}

// TestCongestionFieldsZeroByDefault: a default (single-path, no hot
// links) machine must not run any congestion code — the new Result
// fields stay zero, the compatibility guarantee behind "bit-identical
// to hop-only pricing".
func TestCongestionFieldsZeroByDefault(t *testing.T) {
	m := MustNew(Config{Dim: 3})
	if m.cong != nil {
		t.Fatal("default config built congestion state")
	}
	res, err := m.Run(allNodes(3), exchangeKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkWait != 0 || res.MaxLinkOccupancy != 0 || res.StripedSends != 0 {
		t.Errorf("congestion fields nonzero on default config: %+v", res)
	}
}

// TestHotLinkRaisesMakespan: pricing a surcharge onto one edge must
// strictly raise the makespan of a run crossing it, and the replay must
// report queueing on the congested wire.
func TestHotLinkRaisesMakespan(t *testing.T) {
	base, err := MustNew(Config{Dim: 3}).Run(allNodes(3), exchangeKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	hot := MustNew(Config{Dim: 3, HotLinks: map[cube.Edge]Time{cube.NewEdge(0, 1): 500}})
	res, err := hot.Run(allNodes(3), exchangeKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= base.Makespan {
		t.Errorf("hot link did not raise makespan: %d vs %d", res.Makespan, base.Makespan)
	}
	if res.MaxLinkOccupancy < 2 {
		// Both directions of every dimension-0 pair share one wire.
		t.Errorf("expected queued occupancy, got %d", res.MaxLinkOccupancy)
	}
	if res.LinkWait == 0 {
		t.Error("expected nonzero link wait")
	}
}

// TestMultipathStripesAndReassembles: a multipath run must stripe the
// large transfer (counted in StripedSends), deliver payloads
// bit-identical to the single-path run, and reproduce itself exactly
// across repeated runs — the replay is sorted by (depart, src, seq), so
// host scheduling must not leak into any counter.
func TestMultipathStripesAndReassembles(t *testing.T) {
	var payloads [2][]sortutil.Key
	kernel := func(slot int) Kernel {
		return func(p *Proc) error {
			partner := cube.FlipBit(p.ID(), 0)
			payload := make([]sortutil.Key, 96)
			for i := range payload {
				payload[i] = sortutil.Key(int(p.ID())*1000 + i)
			}
			p.Send(partner, 1, payload)
			got := p.Recv(partner, 1)
			if p.ID() == 0 {
				payloads[slot] = append([]sortutil.Key(nil), got...)
			}
			return nil
		}
	}
	single := MustNew(Config{Dim: 4})
	if _, err := single.Run(allNodes(4), kernel(0)); err != nil {
		t.Fatal(err)
	}
	multi := MustNew(Config{Dim: 4, Routing: RouteMultipath})
	res, err := multi.Run(allNodes(4), kernel(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.StripedSends == 0 {
		t.Error("no transfer striped")
	}
	if len(payloads[0]) != len(payloads[1]) {
		t.Fatalf("payload lengths diverge: %d vs %d", len(payloads[0]), len(payloads[1]))
	}
	for i := range payloads[0] {
		if payloads[0][i] != payloads[1][i] {
			t.Fatalf("striped payload diverges from single-path at %d", i)
		}
	}
	// Determinism: rerun the multipath machine and compare every counter.
	for trial := 0; trial < 3; trial++ {
		again, err := multi.Run(allNodes(4), kernel(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounters(again, res) {
			t.Fatalf("multipath run not deterministic:\n%+v\n%+v", res, again)
		}
	}
}

// TestMultipathAdaptiveSmallTransfer: transfers under the striping
// threshold stay on the primary path — message counts match the
// single-path run exactly.
func TestMultipathAdaptiveSmallTransfer(t *testing.T) {
	single, err := MustNew(Config{Dim: 3}).Run(allNodes(3), exchangeKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MustNew(Config{Dim: 3, Routing: RouteMultipath}).Run(allNodes(3), exchangeKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	if multi.StripedSends != 0 {
		t.Errorf("small transfer striped %d times", multi.StripedSends)
	}
	if multi.Messages != single.Messages || multi.KeysSent != single.KeysSent {
		t.Errorf("unstriped traffic diverges: %+v vs %+v", multi, single)
	}
}

func TestCongestionConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 3, Routing: RoutingPolicy(7)}); err == nil {
		t.Error("bogus routing policy accepted")
	}
	if _, err := New(Config{Dim: 3, HotLinks: map[cube.Edge]Time{{A: 0, B: 3}: 5}}); err == nil {
		t.Error("non-edge hot link accepted")
	}
	if _, err := New(Config{Dim: 3, HotLinks: map[cube.Edge]Time{cube.NewEdge(0, 1): -1}}); err == nil {
		t.Error("negative surcharge accepted")
	}
	if RouteSingle.String() != "ecube" || RouteMultipath.String() != "multipath" {
		t.Errorf("policy names: %q, %q", RouteSingle, RouteMultipath)
	}
}

// TestCongestionClone: clones share the congestion state (immutable
// after construction) and price identically.
func TestCongestionClone(t *testing.T) {
	m := MustNew(Config{Dim: 3, Routing: RouteMultipath})
	c := m.Clone()
	a, err := m.Run(allNodes(3), exchangeKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(allNodes(3), exchangeKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCounters(a, b) {
		t.Errorf("clone priced differently:\n%+v\n%+v", a, b)
	}
}
