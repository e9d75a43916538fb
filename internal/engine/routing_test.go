package engine

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestMultipathSortThroughEngine: a RouteMultipath request plans with
// the congestion objective, runs on a congestion-priced machine, and
// still returns the reference ordering. The plan key must diverge from
// the single-path key for the same configuration, while the single-path
// key stays byte-identical to the pre-routing encoding.
func TestMultipathSortThroughEngine(t *testing.T) {
	e := New(2, 2)
	keys := workload.MustGenerate(workload.Uniform, 2000, xrand.New(7))
	cfg := Config{Dim: 4, Faults: []cube.NodeID{3}, Routing: machine.RouteMultipath}
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("multipath engine sort diverges from reference")
	}
	if res.Res.StripedSends == 0 {
		t.Error("multipath run striped nothing")
	}

	single := cfg
	single.Routing = machine.RouteSingle
	if e.planKey(cfg) == e.planKey(single) {
		t.Error("routing policy not part of the plan key")
	}
}

// TestMultipathNeverDirect: direct mode must refuse multipath requests
// — Predict models hop-only pricing, so a direct result would carry a
// silently wrong makespan. The request still succeeds, on the
// simulator.
func TestMultipathNeverDirect(t *testing.T) {
	e := New(2, 2)
	e.SetMode(ModeDirect)
	keys := workload.MustGenerate(workload.Uniform, 1500, xrand.New(3))
	cfg := Config{Dim: 4, Routing: machine.RouteMultipath}
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Direct {
		t.Error("multipath request served direct")
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("fallback sort diverges from reference")
	}
	// The hop-only sibling is still direct-eligible.
	ecube := cfg
	ecube.Routing = machine.RouteSingle
	res = e.Do(Request{Config: ecube, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Direct {
		t.Error("single-path request lost direct eligibility")
	}
}

// TestMultipathBypassesLanes: congestion-priced sorts run one per
// leased machine, each with its own occupancy replay, and a lease
// re-arms its retained sort run for the next request — so a concurrent
// burst of identical multipath sorts must come back sorted and priced
// identically.
func TestMultipathBypassesLanes(t *testing.T) {
	e := New(2, 4)
	cfg := Config{Dim: 3, Routing: machine.RouteMultipath}
	keys := workload.MustGenerate(workload.Uniform, 600, xrand.New(1))
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Config: cfg, Op: OpSort, Keys: keys}
	}
	results := e.Batch(reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !keysEqual(res.Keys, sortedRef(keys)) {
			t.Fatalf("request %d diverges from reference", i)
		}
		if g, w := res.Res, results[0].Res; g.Makespan != w.Makespan || g.LinkWait != w.LinkWait ||
			g.StripedSends != w.StripedSends || g.MaxLinkOccupancy != w.MaxLinkOccupancy {
			t.Errorf("request %d priced differently:\n%+v\n%+v", i, g, w)
		}
	}
}
