package engine

// Hot replanning: the live-fault recovery path. A run that dies to an
// injected casualty (machine.ProcessorDiedError / LinkDiedError) does
// not surface the error — the engine diagnoses the degraded machine with
// an online PMC probe round, folds the agreed casualties into a new
// canonical configuration, resolves it through the ordinary plan cache
// (a repeat casualty pattern replans for free), and re-dispatches the
// request's keys onto the surviving processors. The original input lives
// host-side, so "redistribute the surviving keys" is exact: every key
// survives, and the recovered output is the full sorted input.
//
// Recovery composes with itself: the degraded re-run goes through
// doOnMachine, whose own recovery hook handles a second casualty striking
// mid-recovery. Each level adds at least one fault to the configuration,
// and validate rejects a fault set that fills the cube, so the recursion
// is bounded by the machine size. When planning the degraded
// configuration fails — the fault set no longer admits a single-fault
// partition, the paper's recoverability frontier — the request fails
// fast with ErrUnrecoverable.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/diagnosis"
	"hypersort/internal/machine"
)

// ErrUnrecoverable is found (via errors.Is) in Result.Err when a mid-run
// casualty left the machine beyond repair: the degraded fault set admits
// no single-fault partition (or no working processor at all), so the
// engine gave up instead of hanging or mis-sorting. Within the paper's
// guarantee band — at most dim-1 processor faults in total — recovery
// never reports it.
var ErrUnrecoverable = errors.New("engine: fault set unrecoverable")

// recoverySeed drives the PMC liar bits of online diagnosis rounds. It
// is a fixed constant so a given (machine state, schedule) recovers
// identically on every substrate and run.
const recoverySeed = 0xD1A6

// InjectFault arms live fault injections on cfg's machine pool: the
// scheduled casualties will strike runs of that configuration mid-kernel
// (see machine.Injection for trigger semantics). The pool's template is
// built on demand and its injector is shared by every pooled machine,
// existing and future. The configuration must be valid and plannable —
// a chaos drill against an unservable configuration is refused.
func (e *Engine) InjectFault(cfg Config, injs ...machine.Injection) error {
	if err := validate(cfg); err != nil {
		return err
	}
	key := e.planKey(cfg)
	if _, err := e.plan(key, cfg); err != nil {
		return err
	}
	return e.poolFor(poolKey{pk: key, cost: cfg.Cost}, cfg).arm(injs...)
}

// DisarmFaults clears cfg's injection schedule, fired entries included:
// the pool serves the configuration at full health again. Call only with
// no run in flight on the configuration.
func (e *Engine) DisarmFaults(cfg Config) error {
	if err := validate(cfg); err != nil {
		return err
	}
	key := e.planKey(cfg)
	if _, err := e.plan(key, cfg); err != nil {
		return err
	}
	return e.poolFor(poolKey{pk: key, cost: cfg.Cost}, cfg).disarm()
}

// recoverFrom is the replanning loop entry: m is the leased machine the
// casualty fired on (the lease is still held — the diagnosis round runs
// on it), req the victim request, and cause the fatal death error.
// Returns the recovered result, or an ErrUnrecoverable-wrapped failure.
func (e *Engine) recoverFrom(ctx context.Context, m *machine.Machine, req Request, cause error) Result {
	start := time.Now()

	// Online diagnosis on the survivors. A second casualty may strike
	// during the probe round itself; each retry sees a smaller survivor
	// set, so the loop is bounded by the machine size.
	var diag diagnosis.OnlineResult
	var derr error
	for attempt := 0; ; attempt++ {
		diag, derr = diagnosis.OnlineRound(m, recoverySeed)
		if derr == nil {
			break
		}
		if machine.IsInjectedDeath(derr) && attempt < m.Cube().Size() {
			continue
		}
		return e.unrecoverable(cause, fmt.Errorf("diagnosis failed: %w", derr))
	}

	// Fold the agreed casualties into a new canonical configuration. The
	// plan key canonicalizes fault and link order, so any arrival order
	// of casualties hits the same cache entries.
	newCfg := req.Config
	newCfg.Faults = diag.Faults.Sorted()
	if len(diag.NewLinks) > 0 {
		newCfg.LinkFaults = append(append([][2]cube.NodeID(nil), req.Config.LinkFaults...), diag.NewLinks...)
	}
	newKey := e.planKey(newCfg)
	if newKey == e.planKey(req.Config) {
		// Diagnosis found nothing new — the death error cannot be
		// replanned away, so surface it rather than loop.
		return Result{Err: cause}
	}
	if err := validate(newCfg); err != nil {
		return e.unrecoverable(cause, err)
	}
	entry, err := e.plan(newKey, newCfg)
	if err != nil {
		return e.unrecoverable(cause, err)
	}

	// Re-dispatch the original keys on the degraded configuration. The
	// nested doOnMachine carries its own recovery hook, so a casualty
	// striking the recovery run recurses with a strictly larger fault
	// set.
	newReq := req
	newReq.Config = newCfg
	res := e.doOnMachine(ctx, newKey, newCfg, entry, newReq)
	if res.Err == nil {
		e.replans.Add(1)
		if em := e.em; em != nil {
			em.Replans.Inc()
			em.KeysRedistributed.Add(int64(len(req.Keys)))
			em.RecoveryLatency.Observe(time.Since(start).Nanoseconds())
		}
	}
	return res
}

// unrecoverable records a failed recovery and wraps the evidence in
// ErrUnrecoverable.
func (e *Engine) unrecoverable(cause, err error) Result {
	e.unrecov.Add(1)
	if e.em != nil {
		e.em.Unrecoverable.Inc()
	}
	return Result{Err: fmt.Errorf("%w: %v (casualty: %v)", ErrUnrecoverable, err, cause)}
}
