package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// Oracle tests pin the recoverability frontier from the paper's routing
// bounds. Within the guarantee band — at most n-1 processor casualties
// in total on Q_n — recovery MUST succeed. Beyond it, on fault sets the
// partition search provably cannot separate, the engine MUST fail fast
// with ErrUnrecoverable instead of hanging or mis-sorting.

// oracleCase is one sequential kill schedule on top of a static fault
// set; total = len(faults) + len(victims).
type oracleCase struct {
	dim     int
	faults  []cube.NodeID
	victims []cube.NodeID
}

func (c oracleCase) String() string {
	return fmt.Sprintf("n%d/f%v/kill%v", c.dim, c.faults, c.victims)
}

// armSequential arms victim k on the configuration recovery reaches
// after the first k casualties, so kills strike one after another.
func armSequential(t *testing.T, e *Engine, c oracleCase) {
	t.Helper()
	for k, v := range c.victims {
		cfgK := Config{Dim: c.dim, Faults: append(append([]cube.NodeID(nil), c.faults...), c.victims[:k]...)}
		if err := e.InjectFault(cfgK, machine.Injection{Kind: machine.KillNode, Node: v, At: 0}); err != nil {
			t.Fatalf("%v: arm level %d: %v", c, k, err)
		}
	}
}

// TestOracleWithinBudgetRecovers: every schedule here keeps the total
// casualty count within n-1, the paper's guarantee band, so recovery
// must always complete with the correct sorted output.
func TestOracleWithinBudgetRecovers(t *testing.T) {
	cases := []oracleCase{
		{dim: 3, victims: []cube.NodeID{0}},
		{dim: 3, faults: []cube.NodeID{1}, victims: []cube.NodeID{6}},
		{dim: 4, faults: []cube.NodeID{2, 7}, victims: []cube.NodeID{0}},
		{dim: 4, victims: []cube.NodeID{1, 2, 4}},
		{dim: 5, faults: []cube.NodeID{3, 17}, victims: []cube.NodeID{8, 12}},
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			e := New(1, 1)
			armSequential(t, e, c)
			keys := workload.MustGenerate(workload.Uniform, 240, xrand.New(5))
			res := e.Do(Request{Config: Config{Dim: c.dim, Faults: c.faults}, Op: OpSort, Keys: keys})
			if res.Err != nil {
				t.Fatalf("within-budget schedule must recover: %v", res.Err)
			}
			if !keysEqual(res.Keys, sortedRef(keys)) {
				t.Fatal("recovered output is not the sorted input")
			}
			if m := e.Metrics(); m.Replans != int64(len(c.victims)) || m.Unrecoverable != 0 {
				t.Fatalf("metrics = %+v, want %d replans and 0 unrecoverable", m, len(c.victims))
			}
		})
	}
}

// TestOracleLinkBudgetRecovers: a severed link costs no processors, so
// replanning onto a configuration that routes around it must succeed.
// PMC syndromes cannot express link faults, so this exercises the
// unconfirmed (sender-identified) diagnosis path; a node kill layered on
// the degraded link configuration must still recover on top of it.
func TestOracleLinkBudgetRecovers(t *testing.T) {
	e := New(1, 1)
	base := Config{Dim: 3}
	link := [2]cube.NodeID{0, 1}
	if err := e.InjectFault(base, machine.Injection{Kind: machine.KillLink, Link: link, At: 0}); err != nil {
		t.Fatal(err)
	}
	// Second casualty: kill a node on the link-degraded configuration the
	// first recovery lands on.
	degraded := Config{Dim: 3, LinkFaults: [][2]cube.NodeID{link}}
	if err := e.InjectFault(degraded, machine.Injection{Kind: machine.KillNode, Node: 5, At: 0}); err != nil {
		t.Fatal(err)
	}

	keys := workload.MustGenerate(workload.Uniform, 160, xrand.New(8))
	res := e.Do(Request{Config: base, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("link + node casualties within budget must recover: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("recovered output is not the sorted input")
	}
	if m := e.Metrics(); m.Replans != 2 || m.Unrecoverable != 0 {
		t.Fatalf("metrics = %+v, want 2 replans and 0 unrecoverable", m)
	}
}

// TestOracleOverBudgetUnrecoverable: these fault sets are verified
// inseparable — partition.BuildPlan has no cutting dimension that
// isolates at most one fault per subcube — so after the kill the engine
// must return ErrUnrecoverable promptly, not hang and not mis-sort.
func TestOracleOverBudgetUnrecoverable(t *testing.T) {
	cases := []oracleCase{
		// {0,1,2} on Q_2: every cut leaves two faults on one side.
		{dim: 2, faults: []cube.NodeID{1, 2}, victims: []cube.NodeID{0}},
		// {0,1,2,4} on Q_3: node 0 plus all its neighbors.
		{dim: 3, faults: []cube.NodeID{1, 2, 4}, victims: []cube.NodeID{0}},
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			e := New(1, 1)
			armSequential(t, e, c)
			keys := workload.MustGenerate(workload.Uniform, 60, xrand.New(3))

			done := make(chan Result, 1)
			go func() {
				done <- e.Do(Request{Config: Config{Dim: c.dim, Faults: c.faults}, Op: OpSort, Keys: keys})
			}()
			var res Result
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("over-budget casualty hung instead of failing fast")
			}
			if !errors.Is(res.Err, ErrUnrecoverable) {
				t.Fatalf("want ErrUnrecoverable, got: %v", res.Err)
			}
			if m := e.Metrics(); m.Unrecoverable < 1 || m.Replans != 0 {
				t.Fatalf("metrics = %+v, want >=1 unrecoverable and 0 replans", m)
			}
		})
	}
}
