package check

import (
	"errors"
	"fmt"
	"runtime"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// Opts bundles the cross-cutting execution controls threaded through every
// checker entry point: a resource budget and a fault plan. The zero value
// is an unlimited, fault-free check — exactly the pre-fault behavior.
type Opts struct {
	// Budget bounds the exploration. A zero budget is unlimited. When the
	// state budget trips, exhaustive entry points return their partial
	// result together with a *run.BudgetError (matched by
	// run.ErrBudgetExceeded) instead of silently truncating.
	Budget run.Budget

	// Faults enables fault injection. Exhaustive exploration uses only the
	// plan's MaxCrashes budget — it chooses crash points adversarially and
	// folds the crashes-spent count into the visited-state key, which keeps
	// pruning sound. Stall windows are rejected in exhaustive mode: they
	// are clocked by the global step count, which the state fingerprint
	// deliberately excludes. Random search honors both MaxCrashes (see
	// CrashProb) and stall windows.
	Faults *machine.FaultPlan

	// CrashProb is the per-step probability that random search spends one
	// crash from Faults.MaxCrashes. Zero selects a small default when a
	// crash budget is present.
	CrashProb float64

	// Workers sizes the worker pool of the work-stealing engine
	// (ExhaustiveParallel). 0 resolves to runtime.NumCPU(); an explicit 1
	// runs single-threaded, which is exactly Exhaustive (verdict, witness
	// schedule, state count and budget-trip point). With more than one
	// worker, verdicts and complete-run state counts stay exact, POR
	// included, but which witness is found first and where a budget trips
	// become scheduling-dependent. Negative values behave like 1.
	// Exhaustive ignores this field: it always runs one worker.
	// CheckProgress rejects values above 1: its graph is recorded by a
	// single worker.
	Workers int

	// Checkpoint enables periodic snapshots of the parallel explorer's
	// pending frontier, worker stacks, visited set and meter usage
	// (nil = none). Snapshots are written atomically (tmp+rename) at
	// quiescent barriers; see CheckpointPolicy. FCFS and liveness
	// checking reject it.
	Checkpoint *CheckpointPolicy

	// WorkerFault is a chaos-testing hook called per worker at worker
	// start and again whenever the worker observes a new snapshot
	// generation (the level argument is the generation; see
	// Checkpoint.Level). Returning a non-nil error kills that worker: the
	// run fails with a *WorkerError and the partial result, leaving any
	// checkpoint intact. The hook may also sleep to simulate a stalled
	// worker. Nil in production.
	WorkerFault func(level, worker int) error

	// Reduction selects the opt-in certified state-space reductions for
	// exhaustive mutual-exclusion exploration (at every worker count).
	// The zero value is bit-identical to the unreduced explorers. Both
	// modes are certified into checkpoint snapshots (since schema v5): a resume
	// whose reduction modes differ from the snapshot's fails closed with
	// ErrCheckpointDrift. The randomized search (Random, and the degraded
	// fallback) always runs full unreduced semantics — a violation it finds
	// is genuine either way, and the broader hunt can only help. FCFS and
	// progress/liveness checking reject reductions loudly: their analyses
	// are not covered by the reduction soundness arguments.
	Reduction Reduction
}

// Reduction selects the certified state-space reduction modes of
// exhaustive exploration. See Opts.Reduction for scope and certification.
type Reduction struct {
	// ReorderBound > 0 switches the TSO/PSO buffer semantics to the
	// reorder-bounded discipline (Joshi–Kroening): each buffered write may
	// reorder past at most ReorderBound of its own process's later
	// program-order operations before the process must retire it (commits
	// and crashes stay enabled; program steps are suppressed). The
	// explored graph under-approximates the full semantics, so a
	// violation-free complete run is a *bounded* certificate, never a full
	// proof — Result.ReorderBound tags it and the facade layers keep
	// Proved false. Every violation found is genuine: a bounded witness
	// replays identically under the full semantics (the bound only
	// suppresses steps, and every witness element took its step). Bounds
	// above machine.MaxReorderBound (255) are rejected. SC is unaffected
	// (its buffers are always empty), which the honest no-op convention
	// reports as ReorderBound = 0 in the result.
	ReorderBound int

	// POR enables commit-step partial-order reduction: singleton ample
	// sets over processes whose next operation is process-local (a
	// buffered write under TSO/PSO, a fence over an empty buffer, a
	// return), guarded by an in-CS visibility check and a static cycle
	// proviso: a fence of a program with a fence-only loop is never ample
	// (lang.Program.FenceOnlyLoop). Reduced state counts therefore depend
	// only on the subject, the model and the options — the same at every
	// worker count and after a resume. Verdicts and witness replayability
	// are preserved (parity suite); state counts shrink. Complete
	// violation-free runs remain full proofs.
	POR bool
}

// Enabled reports whether any reduction mode is selected.
func (r Reduction) Enabled() bool { return r.ReorderBound > 0 || r.POR }

// validate rejects out-of-range reduction parameters.
func (r Reduction) validate() error {
	if r.ReorderBound < 0 {
		return errors.New("check: Reduction.ReorderBound must be >= 0")
	}
	if r.ReorderBound > machine.MaxReorderBound {
		return errors.New("check: Reduction.ReorderBound exceeds machine.MaxReorderBound (255)")
	}
	return nil
}

// unsupported rejects, naming the first one set, the options that the
// engine's two analyses besides occupancy — FCFS's path monitor and the
// liveness graph — cannot honour. Both are defined for crash-free
// executions. Neither is covered by the reduction soundness arguments,
// which are made for the occupancy invariant: the ample relation ignores
// monitor state, and a reduced graph drops edges deadlock freedom must
// see. Neither state is
// part of the checkpoint schema. oneWorker also rejects Workers > 1, for
// the liveness graph, which a single worker records.
func (o Opts) unsupported(what string, oneWorker bool) error {
	switch {
	case !o.Faults.Empty():
		return errors.New("check: " + what + " is defined for fault-free executions only")
	case o.Reduction.Enabled():
		return errors.New("check: " + what + " does not support state-space reduction (Reduction.ReorderBound/POR); reductions are certified for exhaustive mutual-exclusion checking only")
	case o.Checkpoint != nil:
		return errors.New("check: " + what + " does not support snapshots (Opts.Checkpoint)")
	case oneWorker && o.Workers > 1:
		return fmt.Errorf("check: %s runs the engine at one worker; Opts.Workers=%d is unsupported", what, o.Workers)
	}
	return nil
}

// monitorOpts applies unsupported to a monitored subject's runs; the
// engine runs a path monitor at any worker count.
func (s *Subject) monitorOpts(o Opts) error {
	if s.Monitor == nil {
		return nil
	}
	return o.unsupported("checking under a path monitor", false)
}

// workerCount resolves Opts.Workers to a positive pool size: 0 means one
// worker per CPU, negative values mean 1.
func (o Opts) workerCount() int {
	if o.Workers == 0 {
		return runtime.NumCPU()
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// defaultCrashProb is the per-step crash probability used by random search
// when a crash budget is set but no explicit probability was given.
const defaultCrashProb = 0.05

// exhaustiveCrashBudget validates the fault plan for exhaustive exploration
// and returns the adversarial crash budget.
func (o Opts) exhaustiveCrashBudget() (int, error) {
	if o.Faults == nil {
		return 0, nil
	}
	if len(o.Faults.Stalls) > 0 {
		return 0, errors.New("check: exhaustive exploration cannot honor stall windows (they are clocked by the global step count, which visited-state pruning does not track); use random search or replay")
	}
	if len(o.Faults.Crashes) > 0 {
		return 0, errors.New("check: exhaustive exploration chooses crash points adversarially; set FaultPlan.MaxCrashes instead of fixed crash points")
	}
	return o.Faults.MaxCrashes, nil
}

// randomCrash returns the crash budget and per-step probability for random
// search.
func (o Opts) randomCrash() (maxCrashes int, prob float64) {
	if o.Faults == nil || o.Faults.MaxCrashes <= 0 {
		return 0, 0
	}
	prob = o.CrashProb
	if prob <= 0 {
		prob = defaultCrashProb
	}
	return o.Faults.MaxCrashes, prob
}
