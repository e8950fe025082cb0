package tradingfences

import (
	"context"
	"errors"
	"fmt"

	"tradingfences/internal/check"
	"tradingfences/internal/run"
)

// FCFSVerdict reports a first-come-first-served check: Lamport's fairness
// notion — if p completes its wait-free doorway before q enters its
// doorway, q does not enter the critical section before p.
type FCFSVerdict struct {
	Lock  LockSpec
	Model MemoryModel
	// Violated is true if an overtake was found; Violator entered the
	// critical section before Overtaken despite arriving later.
	Violated            bool
	Violator, Overtaken int
	// Proved is true if the product state space (machine × precedence
	// monitor) was exhausted without a violation. Never true in degraded
	// mode.
	Proved bool
	// States is the number of distinct product states explored.
	States int
	// Mode records how the verdict was reached (same constants as
	// MutexVerdict: ModeExhaustive or ModeDegraded).
	Mode string
	// Coverage quantifies the exploration behind the verdict.
	Coverage Coverage
}

// CheckFCFSCtx exhaustively checks first-come-first-served fairness of the
// lock for n processes (one passage each) under the given memory model,
// bounded by opts.Budget and cancelled by ctx. The lock must declare a
// wait-free doorway (Bakery variants, Peterson, GT_f); the tournament tree
// does not, and FCFS is undefined for it. The exploration engine runs at
// one worker with the precedence monitor riding along each path. Fault
// plans are rejected: the monitor is not crash-aware. Workers > 1,
// CheckpointPath and CheckpointEvery are rejected too: the monitor state
// is not part of the checkpoint schema, and silently running one worker
// without snapshots would betray what the caller asked for.
//
// The headline result: Bakery is FCFS (its fence-heavy doorway buys
// fairness), while GT_f for f >= 2 is not — a process alone in its subtree
// overtakes earlier arrivals from contended subtrees. Trading fences for
// RMRs costs first-come-first-served fairness.
//
// Budget handling mirrors CheckMutexCtx: a degradable trip (states,
// memory) continues with a seeded randomized search and the verdict
// reports Mode == ModeDegraded with its Coverage; non-degradable limits
// (steps, wall, context) return the partial (unproved) verdict alongside
// the structured error.
func CheckFCFSCtx(ctx context.Context, spec LockSpec, n int, model MemoryModel, opts CheckOptions) (v *FCFSVerdict, err error) {
	defer run.Recover("check fcfs", &err)
	if err := opts.oneWorker("FCFS checking"); err != nil {
		return nil, err
	}
	ctor, err := spec.constructor()
	if err != nil {
		return nil, err
	}
	subject, err := check.NewFCFSSubject(spec.String(), ctor, n)
	if err != nil {
		return nil, err
	}
	res, cerr := subject.Exhaustive(ctx, model.internal(), check.Opts{Budget: opts.Budget, Faults: opts.Faults})
	v = &FCFSVerdict{
		Lock:      spec,
		Model:     model,
		Violated:  res.Violation,
		Violator:  res.Violator,
		Overtaken: res.Overtaken,
		Proved:    res.Complete && !res.Violation,
		States:    res.States,
		Mode:      ModeExhaustive,
		Coverage:  Coverage{ExhaustiveStates: res.States},
	}
	if cerr == nil {
		return v, nil
	}
	var be *run.BudgetError
	switch {
	case errors.As(cerr, &be) && be.Degradable():
		// Graceful degradation, uniform with the mutex checker: the
		// product state space outgrew its budget, so continue with a
		// randomized hunt (which holds no visited set).
		runs, maxSteps := opts.fallback()
		rres, rerr := subject.Random(ctx, model.internal(), newRand(opts.Seed), runs, maxSteps, 0.35, check.Opts{Faults: opts.Faults})
		v.Mode = ModeDegraded
		v.Proved = false
		v.Coverage.RandomSteps = rres.States
		if rres.Violation {
			v.Violated = true
			v.Violator, v.Overtaken = rres.Violator, rres.Overtaken
		}
		if rerr != nil && !run.IsLimit(rerr) {
			return v, rerr
		}
		return v, nil
	case run.IsLimit(cerr):
		v.Proved = false
		return v, cerr
	default:
		return nil, fmt.Errorf("fcfs %v: %w", spec, cerr)
	}
}
