package trace

import (
	"strings"
	"testing"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func TestRecorderCollectsAndOrders(t *testing.T) {
	rec := NewRecorder()
	m := machine.MustNew(machine.Config{Dim: 2, Trace: rec.Record})
	_, err := m.Run(m.Healthy(), func(p *machine.Proc) error {
		peer := cube.FlipBit(p.ID(), 0)
		p.Exchange(peer, 1, []sortutil.Key{1, 2, 3})
		p.Compute(5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes x (1 send + 1 recv + 1 compute) = 12 events.
	if rec.Len() != 12 {
		t.Fatalf("got %d events", rec.Len())
	}
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("events not time-ordered")
		}
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestAnalyzeBalances(t *testing.T) {
	rec := NewRecorder()
	m := machine.MustNew(machine.Config{Dim: 3, Trace: rec.Record})
	_, err := m.Run(m.Healthy(), func(p *machine.Proc) error {
		for d := 0; d < 3; d++ {
			p.Exchange(cube.FlipBit(p.ID(), d), machine.Tag(d), make([]sortutil.Key, 4))
			p.Compute(4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(rec.Events())
	if len(rep.Profiles) != 8 {
		t.Fatalf("got %d profiles", len(rep.Profiles))
	}
	var out, in int64
	for _, p := range rep.Profiles {
		if p.Sends != 3 || p.Recvs != 3 || p.Comparisons != 12 {
			t.Errorf("profile %+v", p)
		}
		out += p.KeysOut
		in += p.KeysIn
	}
	if out != in || out != 8*3*4 {
		t.Errorf("keys out %d, in %d", out, in)
	}
	// Fault-free neighbor exchanges are all 1-hop.
	if rep.HopHistogram[1] != 24 || len(rep.HopHistogram) != 1 {
		t.Errorf("hop histogram %v", rep.HopHistogram)
	}
	if rep.Traffic[0][1] != 1 {
		t.Error("traffic matrix missing 0->1")
	}
	if !strings.Contains(rep.Summary(), "messages by hop count") {
		t.Error("summary incomplete")
	}
}

// TestFTSortTraceShowsReindexHops traces a fault-tolerant sort whose
// cross-subcube partners are reindexed apart: the hop histogram must show
// multi-hop traffic.
func TestFTSortTraceShowsReindexHops(t *testing.T) {
	faults := cube.NewNodeSet(3, 5, 16, 24) // paper Example 1: HD between dead-w pairs > 0
	plan, err := partition.BuildPlan(5, faults)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	m := machine.MustNew(machine.Config{Dim: 5, Faults: faults, Trace: rec.Record})
	keys := workload.MustGenerate(workload.Uniform, 480, xrand.New(1))
	if _, _, err := core.FTSort(m, plan, keys); err != nil {
		t.Fatal(err)
	}
	rep := Analyze(rec.Events())
	multiHop := 0
	for h, c := range rep.HopHistogram {
		if h > 1 {
			multiHop += c
		}
	}
	if multiHop == 0 {
		t.Errorf("expected multi-hop reindexed traffic, hop histogram %v", rep.HopHistogram)
	}
	if rep.Makespan <= 0 || rep.Events == 0 {
		t.Error("empty report")
	}
	// The timeline renderer must show all three event kinds within the
	// first phase and cap its output.
	tl := Timeline(rec.Events(), 100)
	for _, want := range []string{"compute", "send", "recv", "more events"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil)
	if rep.Events != 0 || len(rep.HopHistogram) != 0 {
		t.Error("empty analysis wrong")
	}
	if Timeline(nil, 5) != "" {
		t.Error("empty timeline should be empty")
	}
}
