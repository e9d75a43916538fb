package engine

// Direct-mode execution: the engine can serve eligible sort requests on
// the host-speed substrate (internal/direct) instead of leasing a
// simulated machine. The compiled schedule is cached on the plan entry
// — mode selection is per request, the plan cache is shared — and the
// simulator remains the oracle: sampled direct results are re-executed
// on a pooled machine and cross-checked, and an armed chaos schedule
// forces every request back onto the simulator (fault injection has no
// meaning without one).

import (
	"context"
	"slices"

	"hypersort/internal/direct"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
)

// Mode selects the execution substrate for eligible requests.
type Mode int

const (
	// ModeSim serves every request on the simulated machine (the
	// default: full virtual-time accounting, measured Results).
	ModeSim Mode = iota
	// ModeDirect serves eligible sorts (single-path routing) on the
	// direct substrate with a predicted Result; everything else —
	// selection ops, multipath routing, and any configuration whose pool
	// has chaos injections armed — stays on the simulator.
	ModeDirect
	// ModeAuto is ModeDirect that additionally yields to the simulator
	// whenever an engine-wide trace hook is attached: direct runs emit
	// no machine events, so a tracing engine keeps the substrate that
	// can be observed.
	ModeAuto
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSim:
		return "sim"
	case ModeDirect:
		return "direct"
	case ModeAuto:
		return "auto"
	}
	return "mode(?)"
}

// SetMode selects the execution substrate for subsequent requests. Call
// before the engine serves traffic, like SetTrace: the field is read
// without locks on the request path.
func (e *Engine) SetMode(m Mode) { e.mode = m }

// SetOracleSample makes direct mode re-execute one in every n direct
// results on the simulator oracle and cross-check the sorted output
// (OracleRuns / ParityBreaks in Metrics, plus the predicted-vs-simulated
// cost error histogram when instrumented). n <= 0 disables sampling
// (the default). The sampled request blocks for the simulated run; pick
// n accordingly. Call before the engine serves traffic.
func (e *Engine) SetOracleSample(n int) { e.oracleSample = n }

// directEligible reports whether a request for cfg/op may run on the
// direct substrate under the engine's mode. Structural eligibility only
// — the armed-chaos check is per pool (see poolArmed) so a disarm
// re-enables direct service without rebuilding anything.
func (e *Engine) directEligible(cfg Config, op Op) bool {
	switch e.mode {
	case ModeDirect:
	case ModeAuto:
		if e.trace != nil {
			return false
		}
	default:
		return false
	}
	// Multipath routing has no direct analogue: direct.Predict
	// reproduces the hop-only §3 model, so a congestion-aware makespan
	// would be silently wrong — such plans are declared
	// direct-ineligible instead.
	return op == OpSort && cfg.Routing == machine.RouteSingle
}

// poolArmed reports whether the configuration's machine pool has chaos
// injections armed. An armed pool forces the simulator path: injections
// fire inside simulated runs, so serving direct would silently ignore
// them. A configuration without a pool cannot be armed (arming builds
// the pool's template first).
func (e *Engine) poolArmed(key partition.PlanKey, cfg Config) bool {
	e.mu.Lock()
	p, ok := e.pools[poolKey{pk: key, cost: cfg.Cost}]
	e.mu.Unlock()
	return ok && p.armed()
}

// schedule returns the entry's compiled direct schedule, compiling it on
// first use (single-flight, cached alongside the plan). Call only on a
// successfully planned entry.
func (entry *planEntry) schedule() *direct.Schedule {
	entry.directOnce.Do(func() {
		entry.sched = direct.Compile(entry.layout)
	})
	return entry.sched
}

// serveDirect executes one eligible sort on the direct substrate: borrow
// a pooled executor, sort at host speed, and attach the analytic
// predicted Result. No machine is leased. Sampled results are
// cross-checked against the simulator oracle before returning.
func (e *Engine) serveDirect(key partition.PlanKey, cfg Config, entry *planEntry, req Request) Result {
	sch := entry.schedule()
	x, _ := entry.execs.Get().(*direct.Exec)
	if x == nil {
		x = direct.NewExec(sch)
	}
	out, err := x.Sort(req.Keys)
	entry.execs.Put(x)
	if err != nil {
		return Result{Err: err}
	}
	pred, err := sch.Predict(len(req.Keys), cfg.Cost)
	if err != nil {
		return Result{Err: err}
	}
	e.directReq.Add(1)
	if e.em != nil {
		e.em.DirectRequests.Inc()
	}
	res := Result{Keys: out, Res: pred, Direct: true}
	if n := e.oracleSample; n > 0 && e.oracleTick.Add(1)%int64(n) == 0 {
		e.shadowOracle(key, cfg, entry, req, res)
	}
	return res
}

// shadowOracle re-executes req on a simulated machine and cross-checks
// the direct result: a sorted-output mismatch increments ParityBreaks
// (any nonzero value is a substrate bug), and the predicted-vs-simulated
// makespan error feeds the cost-error histogram. Oracle failures
// (shutdown, injected faults armed between sampling and acquire) skip
// the check rather than fail the already-served request.
func (e *Engine) shadowOracle(key partition.PlanKey, cfg Config, entry *planEntry, req Request, got Result) {
	pl := e.poolFor(poolKey{pk: key, cost: cfg.Cost}, cfg)
	l, err := pl.acquire(context.Background())
	if err != nil {
		return
	}
	defer pl.release(l)
	sim := e.runOnLease(l, entry, req)
	if sim.Err != nil {
		return
	}
	e.oracleRuns.Add(1)
	if e.em != nil {
		e.em.OracleRuns.Inc()
	}
	if !slices.Equal(sim.Keys, got.Keys) {
		e.parityBreaks.Add(1)
		if e.em != nil {
			e.em.DirectParityBreaks.Inc()
		}
	}
	if e.em != nil && sim.Res.Makespan > 0 {
		d := got.Res.Makespan - sim.Res.Makespan
		if d < 0 {
			d = -d
		}
		e.em.DirectCostError.Observe(int64(d) * 1000 / int64(sim.Res.Makespan))
	}
}

// DoDirect serves req if it takes the direct route under the engine's
// mode — a sort without multipath routing — and reports (zero, false)
// without serving it otherwise. A served request runs exactly as Do
// would run it, inline on the caller's goroutine: admission, planning
// errors, and the armed-chaos fallback to the simulator included.
func (e *Engine) DoDirect(req Request) (Result, bool) {
	if !e.directEligible(req.Config, req.Op) {
		return Result{}, false
	}
	return e.Do(req), true
}
