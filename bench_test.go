// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (reduced trial counts keep `go test -bench=.` quick; the
// full-scale sweeps are cmd/reproduce and its table1, table2 and fig7
// subcommands):
//
//	BenchmarkTable1Partition   — Table 1, mincut distribution
//	BenchmarkTable2Utilization — Table 2, processor utilization
//	BenchmarkFig7a..d          — Figure 7 panels (n = 6, 5, 3, 4)
//	BenchmarkCostModelAgreement, BenchmarkAblation* — DESIGN.md ablations
//
// plus micro-benchmarks of the core operations.
package hypersort

import (
	"fmt"
	"testing"

	"hypersort/internal/bitonic"
	"hypersort/internal/collective"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/diagnosis"
	"hypersort/internal/experiments"
	"hypersort/internal/machine"
	"hypersort/internal/maxsubcube"
	"hypersort/internal/partition"
	"hypersort/internal/recovery"
	"hypersort/internal/routing"
	"hypersort/internal/selection"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// BenchmarkTable1Partition regenerates Table 1 (E1): the distribution of
// mincut values over random fault placements for n = 3..6.
func BenchmarkTable1Partition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Table1Config{Trials: 500, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2Utilization regenerates Table 2 (E2): processor
// utilization of the partition algorithm versus the maximum fault-free
// subcube baseline.
func BenchmarkTable2Utilization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Table2Config{Trials: 300, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// benchFig7 runs one Figure 7 panel at bench scale.
func benchFig7(b *testing.B, n int) {
	b.Helper()
	b.ReportAllocs()
	cfg := experiments.Fig7Config{
		N:              n,
		Ms:             []int{3200, 32000},
		TrialsPerPoint: 2,
		Seed:           uint64(n),
	}
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig7a regenerates Figure 7(a): execution time vs M on Q_6 (E3).
func BenchmarkFig7a(b *testing.B) { benchFig7(b, 6) }

// BenchmarkFig7b regenerates Figure 7(b): Q_5 (E4).
func BenchmarkFig7b(b *testing.B) { benchFig7(b, 5) }

// BenchmarkFig7c regenerates Figure 7(c): Q_3 (E5).
func BenchmarkFig7c(b *testing.B) { benchFig7(b, 3) }

// BenchmarkFig7d regenerates Figure 7(d): Q_4 (E6).
func BenchmarkFig7d(b *testing.B) { benchFig7(b, 4) }

// BenchmarkCostModelAgreement runs E8: the §3 closed form versus the
// simulator across configurations.
func BenchmarkCostModelAgreement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CostAgreement(7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Ratio <= 0 {
				b.Fatal("non-positive ratio")
			}
		}
	}
}

// BenchmarkAblationHeuristic runs E9: the formula (1) selection versus
// the worst member of Ψ.
func BenchmarkAblationHeuristic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeuristicValue(6, 2000, 6, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFaultModel runs E10: partial versus total fault
// routing.
func BenchmarkAblationFaultModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FaultModelComparison(5, 1000, 4, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProtocol runs E11: full-block versus the paper's
// literal half-exchange compare-exchange protocol.
func BenchmarkAblationProtocol(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ProtocolComparison(4, 1000, 2, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTSort measures the end-to-end fault-tolerant sort across
// machine sizes and fault counts.
func BenchmarkFTSort(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []struct{ n, r, m int }{
		{4, 1, 4096}, {5, 2, 8192}, {6, 3, 16384}, {6, 5, 16384},
	} {
		b.Run(fmt.Sprintf("n=%d/r=%d/M=%d", cfg.n, cfg.r, cfg.m), func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(uint64(cfg.n*100 + cfg.r))
			faults := cube.NewNodeSet()
			for _, f := range rng.Sample(1<<cfg.n, cfg.r) {
				faults.Add(cube.NodeID(f))
			}
			plan, err := partition.BuildPlan(cfg.n, faults)
			if err != nil {
				b.Fatal(err)
			}
			mach := machine.MustNew(machine.Config{Dim: cfg.n, Faults: faults})
			keys := workload.MustGenerate(workload.Uniform, cfg.m, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.FTSort(mach, plan, keys); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(cfg.m * 8))
		})
	}
}

// BenchmarkEnginePlanCache isolates the component the engine amortizes:
// acquiring a configuration's partition decisions. "fresh" pays the
// cutting-dimension search plus machine construction on every call
// (hypersort.New); "cached" hits the engine's plan cache
// (Engine.Partition after warm-up). Their ratio is the per-request
// saving the plan cache delivers on repeated configurations.
func BenchmarkEnginePlanCache(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{Dim: 6, Faults: []NodeID{0, 1, 2, 4, 8}}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(EngineConfig{})
		if _, err := eng.Partition(cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Partition(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePooledVsFresh compares serving repeated
// same-configuration sort requests fresh (hypersort.New per call: the
// full partition search plus machine construction every time) against a
// warm Engine (cached plan, pooled machine). The "setup-heavy" case —
// small cube, near-maximal fault set, so the cutting-dimension search is
// a visible fraction of a request — is where the cache pays; the
// "simulation-heavy" case bounds the overhead the engine adds when the
// sort itself dominates. EXPERIMENTS.md records the measured ratios.
func BenchmarkEnginePooledVsFresh(b *testing.B) {
	b.ReportAllocs()
	cases := []struct {
		name   string
		cfg    Config
		mCount int
	}{
		{"setup-heavy/n=4/r=3/M=512", Config{Dim: 4, Faults: []NodeID{0, 1, 2}}, 512},
		{"sim-heavy/n=6/r=5/M=4000", Config{Dim: 6, Faults: []NodeID{3, 17, 40, 41, 62}}, 4000},
	}
	for _, tc := range cases {
		keys := genKeys(tc.mCount, 42)
		b.Run("fresh/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.Sort(keys); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("engine-warm/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine(EngineConfig{PoolSize: 1})
			if _, _, err := eng.Sort(tc.cfg, keys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Sort(tc.cfg, keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBatch measures SortBatch throughput on mixed traffic:
// requests round-robined over four configurations, against the fresh
// sequential loop a caller without the engine would write.
func BenchmarkEngineBatch(b *testing.B) {
	b.ReportAllocs()
	configs := []Config{
		{Dim: 4, Faults: []NodeID{0, 1, 2}},
		{Dim: 5, Faults: []NodeID{3, 17}},
		{Dim: 4, Faults: []NodeID{5}, Model: Total},
		{Dim: 5, Faults: []NodeID{0, 12, 25, 31}},
	}
	const perBatch = 32
	reqs := make([]Request, perBatch)
	for i := range reqs {
		reqs[i] = Request{Config: configs[i%len(configs)], Op: OpSort, Keys: genKeys(512, uint64(i))}
	}
	b.Run("fresh-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				s, err := New(r.Config)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.Sort(r.Keys); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine-batch", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(EngineConfig{})
		eng.SortBatch(reqs) // warm the plan cache and pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.SortBatch(reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkDirectBatch measures the direct host-speed substrate on the
// exact traffic of BenchmarkEngineBatch: the same 32 mixed-configuration
// requests, served by an engine in ModeDirect (compiled schedules,
// in-memory compare-split, predicted stats) instead of the simulator.
// The ratio of engine-batch to direct-batch ns/op is the substrate's
// speedup; the acceptance bar is >= 3x at GOMAXPROCS=4.
func BenchmarkDirectBatch(b *testing.B) {
	b.ReportAllocs()
	configs := []Config{
		{Dim: 4, Faults: []NodeID{0, 1, 2}},
		{Dim: 5, Faults: []NodeID{3, 17}},
		{Dim: 4, Faults: []NodeID{5}, Model: Total},
		{Dim: 5, Faults: []NodeID{0, 12, 25, 31}},
	}
	const perBatch = 32
	reqs := make([]Request, perBatch)
	for i := range reqs {
		reqs[i] = Request{Config: configs[i%len(configs)], Op: OpSort, Keys: genKeys(512, uint64(i))}
	}
	b.Run("direct-batch", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(EngineConfig{Mode: ModeDirect})
		for _, res := range eng.SortBatch(reqs) { // warm plans and compiled schedules
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if !res.Direct {
				b.Fatal("warm-up request not served direct")
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.SortBatch(reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkBaselineBitonic measures the fault-free full-cube bitonic sort
// the baseline runs on the maximum fault-free subcube.
func BenchmarkBaselineBitonic(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mach := machine.MustNew(machine.Config{Dim: n})
			keys := workload.MustGenerate(workload.Uniform, 16384, xrand.New(uint64(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bitonic.Sort(mach, bitonic.FullCube(n), keys, sortutil.Ascending); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionSearch measures the §2.2 cutting-set search alone.
func BenchmarkPartitionSearch(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []struct{ n, r int }{{5, 4}, {6, 5}, {8, 7}, {10, 9}} {
		b.Run(fmt.Sprintf("n=%d/r=%d", cfg.n, cfg.r), func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(uint64(cfg.n))
			h := cube.New(cfg.n)
			faults := cube.NewNodeSet()
			for _, f := range rng.Sample(h.Size(), cfg.r) {
				faults.Add(cube.NodeID(f))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := partition.FindCuttingSet(h, faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxSubcubeSearch measures the baseline's reconfiguration step.
func BenchmarkMaxSubcubeSearch(b *testing.B) {
	b.ReportAllocs()
	h := cube.New(6)
	faults := cube.NewNodeSet(0, 21, 42, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, k := maxsubcube.Find(h, faults); k < 0 {
			b.Fatal("no subcube")
		}
	}
}

// BenchmarkDiagnosis measures syndrome collection plus decoding.
func BenchmarkDiagnosis(b *testing.B) {
	b.ReportAllocs()
	h := cube.New(6)
	faults := cube.NewNodeSet(3, 17, 40, 55, 62)
	rng := xrand.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := diagnosis.Collect(h, faults, rng)
		if _, err := diagnosis.Diagnose(h, s, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverySession measures the E15 restart loop at a failure
// rate that forces occasional retries.
func BenchmarkRecoverySession(b *testing.B) {
	b.ReportAllocs()
	keys := workload.MustGenerate(workload.Uniform, 2000, xrand.New(21))
	for i := 0; i < b.N; i++ {
		_, err := recovery.Run(recovery.Config{Dim: 4, MTBF: 20000, Seed: uint64(i)}, keys)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveScatterGather measures the E12 host distribution
// round trip over the full Q_6.
func BenchmarkCollectiveScatterGather(b *testing.B) {
	b.ReportAllocs()
	mach := machine.MustNew(machine.Config{Dim: 6})
	members := mach.Healthy()
	group := collective.MustGroup(members)
	shares := make([][]sortutil.Key, len(members))
	for i := range shares {
		shares[i] = make([]sortutil.Key, 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mach.Run(members, func(p *machine.Proc) error {
			r, _ := group.RankOf(p.ID())
			var in [][]sortutil.Key
			if r == 0 {
				in = shares
			}
			mine := collective.Scatter(p, group, 0, 1, in)
			collective.Gather(p, group, 0, 10, mine)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultipathSort measures one congestion-priced multipath sort
// (E24's hot-link cell) end to end: disjoint-path construction, striped
// compare-splits, and the post-run link-occupancy replay.
func BenchmarkMultipathSort(b *testing.B) {
	b.ReportAllocs()
	plan, err := partition.BuildPlanObjective(5, nil, partition.ObjectiveCongestion)
	if err != nil {
		b.Fatal(err)
	}
	hot := map[cube.Edge]machine.Time{cube.NewEdge(0, 1): 800}
	m := machine.MustNew(machine.Config{
		Dim: 5, Cost: machine.PaperCostModel(),
		Routing: machine.RouteMultipath, HotLinks: hot,
	})
	keys := workload.MustGenerate(workload.Uniform, 4000, xrand.New(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FTSort(m, plan, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkAwareRouting measures the DFS router with dead links.
func BenchmarkLinkAwareRouting(b *testing.B) {
	b.ReportAllocs()
	h := cube.New(8)
	links := cube.NewEdgeSet()
	rng := xrand.New(5)
	for len(links) < 7 {
		a := cube.NodeID(rng.IntN(h.Size()))
		links.Add(a, h.Neighbor(a, rng.IntN(8)))
	}
	rt := routing.NewLinkAwareRouter(h, nil, links)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := cube.NodeID(rng.IntN(h.Size()))
		dst := cube.NodeID(rng.IntN(h.Size()))
		if _, err := rt.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelection measures distributed k-selection against the full
// sort on the same configuration (see internal/selection).
func BenchmarkSelection(b *testing.B) {
	b.ReportAllocs()
	faults := cube.NewNodeSet(3, 17)
	plan, err := partition.BuildPlan(5, faults)
	if err != nil {
		b.Fatal(err)
	}
	mach := machine.MustNew(machine.Config{Dim: 5, Faults: faults})
	keys := workload.MustGenerate(workload.Uniform, 16384, xrand.New(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := selection.KthSmallest(mach, plan, keys, 8000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapSort measures the Step 3 local sort.
func BenchmarkHeapSort(b *testing.B) {
	b.ReportAllocs()
	keys := workload.MustGenerate(workload.Uniform, 4096, xrand.New(3))
	buf := make([]sortutil.Key, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		sortutil.HeapSort(buf, sortutil.Ascending)
	}
	b.SetBytes(int64(len(keys) * 8))
}

// BenchmarkCompareSplit measures the per-exchange kernel operation.
func BenchmarkCompareSplit(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(5)
	mine := workload.MustGenerate(workload.Uniform, 2048, rng)
	theirs := workload.MustGenerate(workload.Uniform, 2048, rng)
	sortutil.HeapSort(mine, sortutil.Ascending)
	sortutil.HeapSort(theirs, sortutil.Ascending)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortutil.CompareSplit(mine, theirs, i%2 == 0)
	}
}
