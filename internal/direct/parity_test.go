package direct

import (
	"fmt"
	"slices"
	"testing"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// parityConfig is one cached-plan shape the torture suite holds the two
// substrates bit-identical on.
type parityConfig struct {
	name   string
	dim    int
	faults []cube.NodeID
	links  [][2]cube.NodeID
	model  machine.FaultModel
}

// parityConfigs spans the plan shapes the engine caches: healthy cubes,
// single- and multi-fault partitions (including the paper's Example 1
// fault set on Q_6), the total fault model, and detour routing around
// dead links.
func parityConfigs() []parityConfig {
	return []parityConfig{
		{name: "q4-healthy", dim: 4},
		{name: "q3-f0", dim: 3, faults: []cube.NodeID{0}},
		{name: "q4-f079", dim: 4, faults: []cube.NodeID{0, 7, 9}},
		{name: "q5-f3-17-21-30", dim: 5, faults: []cube.NodeID{3, 17, 21, 30}},
		{name: "q6-paper", dim: 6, faults: []cube.NodeID{3, 5, 16, 24}},
		{name: "q4-f5-total", dim: 4, faults: []cube.NodeID{5}, model: machine.Total},
		{name: "q4-f5-links", dim: 4, faults: []cube.NodeID{5}, links: [][2]cube.NodeID{{0, 2}, {9, 11}}},
	}
}

// rig is one compiled configuration: the simulated machine and the
// direct schedule for the same cached plan.
type rig struct {
	plan   *partition.Plan
	layout *core.Layout
	m      *machine.Machine
	sch    *Schedule
	exec   *Exec
	// exactHops reports whether the simulator prices routes by Hamming
	// distance for this config (partial model, no link faults) — the
	// regime where the predicted KeyHops must match exactly.
	exactHops bool
}

func buildRig(t *testing.T, pc parityConfig) *rig {
	t.Helper()
	faults := cube.NewNodeSet(pc.faults...)
	plan, err := partition.BuildPlan(pc.dim, faults)
	if err != nil {
		t.Fatalf("BuildPlan(%d, %v): %v", pc.dim, pc.faults, err)
	}
	links := cube.EdgeSet{}
	for _, e := range pc.links {
		links.Add(e[0], e[1])
	}
	m, err := machine.New(machine.Config{Dim: pc.dim, Faults: faults, LinkFaults: links, Model: pc.model})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	layout := core.NewLayout(plan)
	sch := Compile(layout)
	return &rig{
		plan:      plan,
		layout:    layout,
		m:         m,
		sch:       sch,
		exec:      NewExec(sch),
		exactHops: pc.model == machine.Partial && len(pc.links) == 0,
	}
}

// check runs keys through both substrates and fails unless the outputs
// are bit-identical and the predicted work counters match the simulated
// ones per the documented exactness contract.
func (rg *rig) check(t *testing.T, keys []sortutil.Key) {
	t.Helper()
	simOut, simRes, err := core.FTSortLayout(rg.m, rg.layout, keys, core.Options{})
	if err != nil {
		t.Fatalf("simulated sort: %v", err)
	}
	dirOut, err := rg.exec.Sort(keys)
	if err != nil {
		t.Fatalf("direct sort: %v", err)
	}
	if !slices.Equal(simOut, dirOut) {
		t.Fatalf("parity break on %d keys: sim %v... direct %v...",
			len(keys), head(simOut), head(dirOut))
	}
	pred, err := rg.sch.Predict(len(keys), machine.CostModel{})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.Messages != simRes.Messages {
		t.Errorf("Messages: predicted %d, simulated %d", pred.Messages, simRes.Messages)
	}
	if pred.KeysSent != simRes.KeysSent {
		t.Errorf("KeysSent: predicted %d, simulated %d", pred.KeysSent, simRes.KeysSent)
	}
	if pred.Comparisons != simRes.Comparisons {
		t.Errorf("Comparisons: predicted %d, simulated %d", pred.Comparisons, simRes.Comparisons)
	}
	if rg.exactHops {
		if pred.KeyHops != simRes.KeyHops {
			t.Errorf("KeyHops: predicted %d, simulated %d", pred.KeyHops, simRes.KeyHops)
		}
	} else if pred.KeyHops > simRes.KeyHops {
		t.Errorf("KeyHops: predicted %d exceeds simulated %d (must be a lower bound)",
			pred.KeyHops, simRes.KeyHops)
	}
}

func head(ks []sortutil.Key) []sortutil.Key {
	if len(ks) > 8 {
		return ks[:8]
	}
	return ks
}

// TestParityExhaustivePermutations sweeps every permutation of a small
// distinct key set and of a duplicate-heavy multiset through healthy and
// degraded plans, go-lua torture style: at this size the input space is
// coverable outright, so any divergence in pair order, direction, or
// tie-breaking between the substrates is caught unconditionally.
func TestParityExhaustivePermutations(t *testing.T) {
	configs := []parityConfig{
		{name: "q2-healthy", dim: 2},
		{name: "q2-f3", dim: 2, faults: []cube.NodeID{3}},
		{name: "q3-f0", dim: 3, faults: []cube.NodeID{0}},
	}
	inputs := [][]sortutil.Key{
		{1, 2, 3, 4, 5, 6},    // distinct
		{0, 0, 1, 1, 2, 2},    // duplicate multiset: tie-breaking coverage
		{5, 4, 3, 2, 1, 0, 9}, // length not divisible by p: Inf padding
	}
	for _, pc := range configs {
		t.Run(pc.name, func(t *testing.T) {
			rg := buildRig(t, pc)
			for _, base := range inputs {
				permute(slices.Clone(base), func(perm []sortutil.Key) {
					rg.check(t, perm)
				})
			}
		})
	}
}

// permute invokes f on every permutation of keys (Heap's algorithm).
// f must not retain or modify its argument.
func permute(keys []sortutil.Key, f func([]sortutil.Key)) {
	var rec func(k int)
	rec = func(k int) {
		if k <= 1 {
			f(keys)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				keys[i], keys[k-1] = keys[k-1], keys[i]
			} else {
				keys[0], keys[k-1] = keys[k-1], keys[0]
			}
		}
	}
	rec(len(keys))
}

// allEqual builds m identical keys — the degenerate all-ties input.
func allEqual(m int) []sortutil.Key {
	out := make([]sortutil.Key, m)
	for i := range out {
		out[i] = 42
	}
	return out
}

// sawtooth builds m keys cycling 0..period-1 — the classic adversarial
// order for merge networks (maximal alternation between chunks).
func sawtooth(m, period int) []sortutil.Key {
	out := make([]sortutil.Key, m)
	for i := range out {
		out[i] = sortutil.Key(i % period)
	}
	return out
}

// TestParityAdversarial runs structured adversarial orders and random
// workloads at scale through every parity configuration, including
// degraded plans, the total fault model, and link-fault detour routing.
func TestParityAdversarial(t *testing.T) {
	r := xrand.New(7)
	sizes := []int{17, 256, 4096}
	for _, pc := range parityConfigs() {
		t.Run(pc.name, func(t *testing.T) {
			rg := buildRig(t, pc)
			for _, m := range sizes {
				inputs := map[string][]sortutil.Key{
					"sawtooth":  sawtooth(m, 7),
					"dup-heavy": workload.MustGenerate(workload.FewDistinct, m, r),
					"presorted": workload.MustGenerate(workload.Sorted, m, r),
					"reversed":  workload.MustGenerate(workload.ReverseOrder, m, r),
					"all-equal": allEqual(m),
					"uniform":   workload.MustGenerate(workload.Uniform, m, r),
				}
				for name, keys := range inputs {
					before := slices.Clone(keys)
					rg.check(t, keys)
					if !slices.Equal(keys, before) {
						t.Fatalf("%s/%d: input mutated", name, m)
					}
				}
			}
		})
	}
}

// TestParityLargeParallel crosses the executor's parallelism threshold
// so the striped multi-worker rounds (not just the inline path) are held
// to bit-identical parity.
func TestParityLargeParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	r := xrand.New(11)
	for _, pc := range []parityConfig{
		{name: "q4-healthy", dim: 4},
		{name: "q4-f079", dim: 4, faults: []cube.NodeID{0, 7, 9}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			rg := buildRig(t, pc)
			m := parallelThreshold + 1337 // forces the multi-worker path
			rg.check(t, workload.MustGenerate(workload.Uniform, m, r))
			rg.check(t, sawtooth(m, 13))
		})
	}
}

// TestExecReuse re-runs one executor across many inputs to pin the
// arena re-carve invariant: buffer permutations left by one run must not
// alias shares and scratch on the next.
func TestExecReuse(t *testing.T) {
	rg := buildRig(t, parityConfig{name: "q4-f079", dim: 4, faults: []cube.NodeID{0, 7, 9}})
	r := xrand.New(3)
	for i := 0; i < 50; i++ {
		m := 1 + r.IntN(600)
		rg.check(t, workload.MustGenerate(workload.Uniform, m, r))
	}
}

// TestScheduleShape sanity-checks the compiled schedule's structure
// against the closed-form round counts: s(s+1)/2 intra-subcube rounds
// per merge pass, m(m+1)/2 cross passes.
func TestScheduleShape(t *testing.T) {
	for _, pc := range parityConfigs() {
		t.Run(pc.name, func(t *testing.T) {
			rg := buildRig(t, pc)
			sp := rg.plan.Split
			s, m := sp.S(), sp.M()
			mergeRounds := s * (s + 1) / 2
			if rg.plan.HasDead && s == 1 {
				// Q_1 subcubes with a dead member have no live pairs at
				// all: every merge round is empty and dropped.
				mergeRounds = 0
			}
			cross := m * (m + 1) / 2
			want := mergeRounds + cross*(1+mergeRounds)
			if got := rg.sch.NumRounds(); got != want {
				t.Errorf("NumRounds = %d, want %d (s=%d m=%d)", got, want, s, m)
			}
			if rg.sch.P() != len(rg.layout.Working) {
				t.Errorf("P = %d, want %d", rg.sch.P(), len(rg.layout.Working))
			}
			if rg.sch.NumPairs() == 0 && m+s > 0 {
				t.Error("schedule has no pairs")
			}
		})
	}
}

// TestPredictErrors covers Predict's validation path.
func TestPredictErrors(t *testing.T) {
	rg := buildRig(t, parityConfig{name: "q3", dim: 3})
	if _, err := rg.sch.Predict(-1, machine.CostModel{}); err == nil {
		t.Error("negative key count accepted")
	}
}

func ExampleCompile() {
	plan, _ := partition.BuildPlan(3, cube.NewNodeSet(0))
	sch := Compile(core.NewLayout(plan))
	out, _ := NewExec(sch).Sort([]sortutil.Key{5, 3, 9, 1, 7, 2, 8, 4})
	fmt.Println(out)
	// Output: [1 2 3 4 5 7 8 9]
}
