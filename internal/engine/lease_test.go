package engine

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestPerNodeBufferPooledPerLease pins the Result.PerNode reuse
// contract: consecutive sorts on the same single-machine pool return
// the same map storage (no per-request allocation), refilled with
// identical clocks.
func TestPerNodeBufferPooledPerLease(t *testing.T) {
	e := New(1, 1)
	cfg := Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 90, xrand.New(10))
	r1 := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	first := r1.Res.PerNode
	if len(first) == 0 {
		t.Fatal("no PerNode clocks recorded")
	}
	snapshot := make(map[cube.NodeID]int64, len(first))
	for id, c := range first {
		snapshot[id] = int64(c)
	}
	r2 := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	// Same pooled storage, same deterministic contents.
	if len(r2.Res.PerNode) != len(snapshot) {
		t.Fatalf("PerNode size changed: %d vs %d", len(r2.Res.PerNode), len(snapshot))
	}
	for id, c := range r2.Res.PerNode {
		if snapshot[id] != int64(c) {
			t.Fatalf("node %d clock %d != %d", id, c, snapshot[id])
		}
	}
	// The maps must literally alias (mutating one shows in the other):
	// that is the pooling, and why Result documents the copy rule.
	r2.Res.PerNode[cube.NodeID(0)] = 0xBEEF
	if first[cube.NodeID(0)] != 0xBEEF {
		t.Error("PerNode maps are not pooled storage (second run allocated afresh)")
	}
}
