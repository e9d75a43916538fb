package engine

import (
	"slices"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// directTestKeys generates a deterministic mixed workload.
func directTestKeys(n int, seed uint64) []sortutil.Key {
	return workload.MustGenerate(workload.Uniform, n, xrand.New(seed))
}

// TestModeDirectServesSortsWithoutMachines pins the tentpole contract:
// in ModeDirect an eligible sort is served by the direct substrate —
// same sorted output as a simulated engine, a predicted Result, the
// Direct flag set, and no simulated machine ever constructed.
func TestModeDirectServesSortsWithoutMachines(t *testing.T) {
	cfg := Config{Dim: 4, Faults: []cube.NodeID{0, 7, 9}}
	keys := directTestKeys(700, 1)

	dEng := New(1, 1)
	dEng.SetMode(ModeDirect)
	dRes := dEng.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if dRes.Err != nil {
		t.Fatal(dRes.Err)
	}
	if !dRes.Direct {
		t.Fatal("ModeDirect sort did not set Result.Direct")
	}

	sEng := New(1, 1)
	sRes := sEng.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if sRes.Err != nil {
		t.Fatal(sRes.Err)
	}
	if sRes.Direct {
		t.Fatal("default-mode sort set Result.Direct")
	}
	if !slices.Equal(dRes.Keys, sRes.Keys) {
		t.Fatal("direct output differs from simulated output")
	}

	m := dEng.Metrics()
	if m.MachinesBuilt != 0 || m.MachinesCloned != 0 {
		t.Errorf("direct engine built %d machines (cloned %d), want 0", m.MachinesBuilt, m.MachinesCloned)
	}
	if m.DirectRequests != 1 {
		t.Errorf("DirectRequests = %d, want 1", m.DirectRequests)
	}
	if dRes.Res.Makespan <= 0 || dRes.Res.Comparisons <= 0 {
		t.Errorf("predicted Result looks empty: %+v", dRes.Res)
	}
}

// TestModeDirectIneligibleOps pins the eligibility rule for selection
// ops: they stay on the simulator even in ModeDirect (multipath routing
// is TestMultipathNeverDirect's case).
func TestModeDirectIneligibleOps(t *testing.T) {
	e := New(1, 1)
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 3, Faults: []cube.NodeID{2}}
	keys := directTestKeys(200, 2)

	if res := e.Do(Request{Config: cfg, Op: OpMedian, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct {
		t.Error("selection op served direct")
	}
	if m := e.Metrics(); m.DirectRequests != 0 {
		t.Errorf("DirectRequests = %d, want 0", m.DirectRequests)
	}
	if m := e.Metrics(); m.MachinesBuilt == 0 {
		t.Error("ineligible requests built no machines — they cannot have simulated")
	}
}

// TestDirectChaosFallback pins the armed-chaos invariant: the simulator
// is the only execution path while injections are armed, and disarming
// restores direct service without rebuilding anything.
func TestDirectChaosFallback(t *testing.T) {
	e := New(1, 1)
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 3}
	keys := directTestKeys(300, 3)

	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil || !res.Direct {
		t.Fatalf("pre-arm sort: direct=%v err=%v", res.Direct, res.Err)
	}
	// Arm a kill far in the virtual future: the run recovers or completes
	// — either way it must run on the simulator.
	if err := e.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 5, At: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Direct {
		t.Fatal("sort served direct while chaos injections were armed")
	}
	if err := e.DisarmFaults(cfg); err != nil {
		t.Fatal(err)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil || !res.Direct {
		t.Fatalf("post-disarm sort: direct=%v err=%v", res.Direct, res.Err)
	}
	if m := e.Metrics(); m.DirectRequests != 2 {
		t.Errorf("DirectRequests = %d, want 2 (pre-arm and post-disarm only)", m.DirectRequests)
	}
}

// TestModeAutoTraceFallback pins auto-mode semantics: with an
// engine-wide trace hook attached auto serves the simulator (direct
// runs emit no machine events); without one it serves direct.
func TestModeAutoTraceFallback(t *testing.T) {
	cfg := Config{Dim: 3}
	keys := directTestKeys(120, 4)

	traced := New(1, 1)
	traced.SetTrace(func(machine.TraceEvent) {})
	traced.SetMode(ModeAuto)
	if res := traced.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct {
		t.Error("auto mode served direct despite an attached trace hook")
	}

	plain := New(1, 1)
	plain.SetMode(ModeAuto)
	if res := plain.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if !res.Direct {
		t.Error("auto mode without trace did not serve direct")
	}
}

// TestDirectOracleSampling exercises the shadow-oracle loop: with
// SetOracleSample(1) every direct result is re-executed on a simulated
// machine and cross-checked. Zero parity breaks expected, and the
// sampled runs must show up in both Metrics and the obs bundle.
func TestDirectOracleSampling(t *testing.T) {
	e := New(1, 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	e.SetMode(ModeDirect)
	e.SetOracleSample(1)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{5}}
	for i := 0; i < 8; i++ {
		res := e.Do(Request{Config: cfg, Op: OpSort, Keys: directTestKeys(150+i, uint64(i))})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Direct {
			t.Fatal("oracle-sampled sort lost its Direct flag")
		}
	}
	m := e.Metrics()
	if m.OracleRuns != 8 {
		t.Errorf("OracleRuns = %d, want 8", m.OracleRuns)
	}
	if m.ParityBreaks != 0 {
		t.Errorf("ParityBreaks = %d, want 0", m.ParityBreaks)
	}
	if m.MachinesBuilt == 0 {
		t.Error("oracle sampling built no simulated machine")
	}
}

// TestModeDirectUnbatched pins DoDirect, the inline probe kept for
// callers that only want the direct route: it serves an eligible sort
// exactly as Do would, and declines ineligible requests without serving
// them.
func TestModeDirectUnbatched(t *testing.T) {
	e := New(1, 1)
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 4}
	keys := directTestKeys(500, 5)
	res, ok := e.DoDirect(Request{Config: cfg, Op: OpSort, Keys: keys})
	if !ok || res.Err != nil {
		t.Fatalf("eligible sort: ok=%v err=%v", ok, res.Err)
	}
	if !res.Direct || !slices.Equal(res.Keys, sortedRef(keys)) {
		t.Fatal("eligible sort not served direct and sorted")
	}
	if _, ok := e.DoDirect(Request{Config: cfg, Op: OpMedian, Keys: keys}); ok {
		t.Error("DoDirect served a selection op")
	}
	multi := cfg
	multi.Routing = machine.RouteMultipath
	if _, ok := e.DoDirect(Request{Config: multi, Op: OpSort, Keys: keys}); ok {
		t.Error("DoDirect served a multipath sort")
	}
	m := e.Metrics()
	if m.MachinesBuilt != 0 {
		t.Errorf("MachinesBuilt = %d, want 0", m.MachinesBuilt)
	}
	if m.DirectRequests != 1 || m.Requests != 1 {
		t.Errorf("DirectRequests = %d, Requests = %d, want 1 and 1", m.DirectRequests, m.Requests)
	}
}
