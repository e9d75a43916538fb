package engine

import (
	"context"
	"sync"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// lease is what a request borrows from a pool: a simulated machine plus
// the reusable per-run scratch tied to it. perNode is the Result.PerNode
// buffer handed to machine.RunInto — it is valid in a returned Result
// only until the next request leases the same entry, which is why
// engine.Result documents a copy-before-hold rule for PerNode.
type lease struct {
	m *machine.Machine
	// perNode is created lazily on the first request that produces one.
	perNode map[cube.NodeID]machine.Time
	// run is the machine's last sort, retained so the next sort with the
	// same layout and kernel options re-arms its arenas (SortRun.Reuse)
	// instead of building a new one.
	run *core.SortRun
}

// sortRun prepares a sort of keys on the lease's machine, re-arming the
// retained run when it fits layout and opts.
func (l *lease) sortRun(layout *core.Layout, keys []sortutil.Key, opts core.Options) (*core.SortRun, error) {
	if l.run != nil && l.run.Fits(layout, opts) {
		if err := l.run.Reuse(keys); err != nil {
			return nil, err
		}
		return l.run, nil
	}
	r, err := core.NewSortRun(l.m, layout, keys, opts)
	if err != nil {
		return nil, err
	}
	l.run = r
	return r, nil
}

// pool is a bounded pool of simulated machines for one configuration.
// The first acquisition builds a template machine with machine.New (full
// validation); later growth clones the template (the fast-path — shared
// immutable topology and router, fresh per-node state). Once max
// machines exist, acquire blocks until one is released, so a pool can
// never hold more than max machines no matter the request pressure.
type pool struct {
	// build constructs a machine: prev is nil for the template build and
	// the template for clone builds.
	build func(prev *machine.Machine) (*machine.Machine, error)

	// sem holds one token per machine ever created; at capacity, only
	// the idle channel can satisfy an acquire.
	sem chan struct{}
	// idle buffers released leases; capacity == cap(sem), so release
	// never blocks.
	idle chan *lease

	mu       sync.Mutex
	template *machine.Machine
}

func newPool(max int, build func(prev *machine.Machine) (*machine.Machine, error)) *pool {
	if max < 1 {
		max = 1
	}
	return &pool{
		build: build,
		sem:   make(chan struct{}, max),
		idle:  make(chan *lease, max),
	}
}

// acquire returns an idle lease, or creates one if the pool is below its
// bound, or blocks until one is released or the context is done. An
// already-idle lease is always preferred, even over an expired context —
// the caller paid the wait either way, and handing it capacity is
// strictly more useful. ctx must be non-nil (pass context.Background()
// to wait unconditionally).
func (p *pool) acquire(ctx context.Context) (*lease, error) {
	// Prefer reuse over growth when a machine is already idle.
	select {
	case l := <-p.idle:
		return l, nil
	default:
	}
	select {
	case l := <-p.idle:
		return l, nil
	case p.sem <- struct{}{}:
		l, err := p.grow()
		if err != nil {
			<-p.sem
			return nil, err
		}
		return l, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// grow builds one more machine: the template on first call, a clone of
// it afterwards.
func (p *pool) grow() (*lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.template == nil {
		m, err := p.build(nil)
		if err != nil {
			return nil, err
		}
		p.template = m
		return &lease{m: m}, nil
	}
	m, err := p.build(p.template)
	if err != nil {
		return nil, err
	}
	return &lease{m: m}, nil
}

// release returns a lease to the pool. Machines reset their own state
// at the start of every Run, so no scrubbing is needed here.
func (p *pool) release(l *lease) {
	p.idle <- l
}

// arm schedules live fault injections on the pool's shared injector. It
// leases a machine first, which forces the template build on a cold pool
// and guarantees the lease/template invariant (a non-empty pool always
// has a template); arming the template arms every clone, existing and
// future, because Clone shares the injector.
func (p *pool) arm(injs ...machine.Injection) error {
	l, err := p.acquire(context.Background())
	if err != nil {
		return err
	}
	defer p.release(l)
	p.mu.Lock()
	t := p.template
	p.mu.Unlock()
	return t.Arm(injs...)
}

// disarm clears the pool's injection schedule, fired entries included.
func (p *pool) disarm() error {
	l, err := p.acquire(context.Background())
	if err != nil {
		return err
	}
	defer p.release(l)
	p.mu.Lock()
	t := p.template
	p.mu.Unlock()
	t.DisarmInjections()
	return nil
}

// armed reports whether the pool's shared injection schedule is
// non-empty. A cold pool (no template yet) is never armed: arm() forces
// the template build, so an un-built pool cannot have been armed.
func (p *pool) armed() bool {
	p.mu.Lock()
	t := p.template
	p.mu.Unlock()
	return t != nil && t.InjectionsArmed()
}
