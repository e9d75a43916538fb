package machine

import (
	"sync"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/sortutil"
)

func TestSizeClassRoundTrip(t *testing.T) {
	// Every buffer get hands out must land back in a class whose get size
	// its capacity can serve: put(get(n)) must be reusable for n.
	kp := &keyPool{}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1000, 1024, 1025, 1 << 20} {
		b := kp.get(n)
		if len(b) != n {
			t.Fatalf("get(%d) returned len %d", n, len(b))
		}
		ptr := &b[0]
		kp.put(b)
		b2 := kp.get(n)
		if &b2[0] != ptr {
			t.Errorf("get(%d) after put did not recycle the buffer", n)
		}
	}
}

func TestPoolGetZero(t *testing.T) {
	kp := &keyPool{}
	if b := kp.get(0); b != nil {
		t.Fatalf("get(0) = %v, want nil", b)
	}
	kp.put(nil) // must not panic
}

func TestPoolBoundedPerClass(t *testing.T) {
	kp := &keyPool{}
	for i := 0; i < maxPerClass+50; i++ {
		kp.put(make([]sortutil.Key, 8))
	}
	fl := &kp.classes[sizeClass(8)]
	if got := len(fl.bufs); got != maxPerClass {
		t.Fatalf("class holds %d buffers, want capped at %d", got, maxPerClass)
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	kp := &keyPool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 1 + (g*13+i)%300
				b := kp.get(n)
				for j := range b {
					b[j] = sortutil.Key(n)
				}
				kp.put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledPayloadNotAliased runs many rounds of message traffic with
// release poisoning on and asserts no kernel ever observes the poison
// sentinel: a recycled buffer must never be visible through a previously
// received (and released) slice, across kernels and across runs. The
// ring-exchange kernel releases every payload immediately after copying
// it out, so every buffer cycles through the pool each round.
func TestRecycledPayloadNotAliased(t *testing.T) {
	SetReleasePoison(true)
	defer SetReleasePoison(false)

	m := MustNew(Config{Dim: 4})
	parts := m.Healthy()
	const rounds = 20
	for run := 0; run < 5; run++ {
		_, err := m.Run(parts, func(p *Proc) error {
			next := cube.NodeID((int(p.ID()) + 1) % len(parts))
			prev := cube.NodeID((int(p.ID()) + len(parts) - 1) % len(parts))
			val := sortutil.Key(int(p.ID()) + run*1000)
			payload := []sortutil.Key{val, val + 1, val + 2}
			for r := 0; r < rounds; r++ {
				p.Send(next, Tag(r), payload)
				got := p.Recv(prev, Tag(r))
				want := sortutil.Key(int(prev) + run*1000)
				for i, k := range got {
					if k == poisonKey {
						t.Errorf("run %d round %d: node %d observed poisoned payload", run, r, p.ID())
					}
					if k != want+sortutil.Key(i) {
						t.Errorf("run %d round %d: node %d got[%d] = %d, want %d", run, r, p.ID(), i, k, want+sortutil.Key(i))
					}
				}
				p.Release(got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleasePoisonDetectsUseAfterRelease is the positive control for the
// aliasing tests: a kernel that (illegally) reads a buffer after Release,
// once the pool has recycled it into a new Send, must observe either the
// poison sentinel or the new owner's data — never stale original data
// presented as fresh. This pins the poisoning machinery the sort-level
// aliasing tests rely on.
func TestReleasePoisonDetectsUseAfterRelease(t *testing.T) {
	SetReleasePoison(true)
	defer SetReleasePoison(false)

	m := MustNew(Config{Dim: 1})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *Proc) error {
		if p.ID() == 1 {
			p.Send(0, 1, []sortutil.Key{42, 42, 42, 42})
			p.Send(0, 2, []sortutil.Key{7, 7, 7, 7})
			return nil
		}
		got := p.Recv(1, 1)
		p.Release(got)
		// got is now illegal to read. The release poisoned it, so the
		// stale view must be the sentinel (until a new Send reuses it).
		if got[0] != poisonKey {
			t.Errorf("released buffer reads %d, want poison sentinel", got[0])
		}
		second := p.Recv(1, 2)
		p.Release(second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidExchangeRecyclesCleanly pins the abort-cascade/pool
// interaction for live faults: a node killed mid-compare-split strands
// peers in Send/Recv against it, and the abort cascade must neither leak
// their in-flight pooled payloads nor double-release one into two future
// owners. The test kills a node at several different virtual instants
// (striking different points of the exchange schedule), then disarms and
// replays verified ring traffic with poisoning on — a buffer freed twice
// would alias two sends (wrong data), and a stale undelivered payload
// would surface as the poison sentinel.
func TestAbortMidExchangeRecyclesCleanly(t *testing.T) {
	SetReleasePoison(true)
	defer SetReleasePoison(false)

	m := MustNew(Config{Dim: 3})
	parts := m.Healthy()

	traffic := func(p *Proc) error {
		payload := []sortutil.Key{1, 2, 3, 4, 5, 6, 7, 8}
		for r := 0; r < 8; r++ {
			p.Compute(2)
			for d := 0; d < p.Dim(); d++ {
				peer := cube.FlipBit(p.ID(), d)
				got := p.Exchange(peer, Tag(r*p.Dim()+d), payload)
				p.Release(got)
			}
		}
		return nil
	}

	for trial := 0; trial < 6; trial++ {
		if err := m.Arm(Injection{Kind: KillNode, Node: 5, At: Time(trial * 7)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunAllHealthy(traffic); !IsInjectedDeath(err) {
			t.Fatalf("trial %d: kill did not fire: %v", trial, err)
		}
		m.DisarmInjections()

		// Verified replay: every received key must be the sender's exact
		// payload — never poison, never another round's buffer.
		_, err := m.Run(parts, func(p *Proc) error {
			next := cube.NodeID((int(p.ID()) + 1) % len(parts))
			prev := cube.NodeID((int(p.ID()) + len(parts) - 1) % len(parts))
			base := sortutil.Key(int(p.ID())*100 + trial*1000)
			for r := 0; r < 10; r++ {
				p.Send(next, Tag(r), []sortutil.Key{base, base + 1, base + 2})
				got := p.Recv(prev, Tag(r))
				want := sortutil.Key(int(prev)*100 + trial*1000)
				for i, k := range got {
					if k == poisonKey {
						t.Errorf("trial %d round %d: node %d observed poisoned payload after abort", trial, r, p.ID())
					} else if k != want+sortutil.Key(i) {
						t.Errorf("trial %d round %d: node %d got[%d] = %d, want %d", trial, r, p.ID(), i, k, want+sortutil.Key(i))
					}
				}
				p.Release(got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: post-abort replay: %v", trial, err)
		}
	}
}
