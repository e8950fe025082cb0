package tradingfences

import (
	"fmt"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
	"tradingfences/internal/witness"
)

// Budget bounds the resources a check or encode run may consume. The zero
// value of each field means "unlimited".
//
// Memory accounting unit: exhaustive checking charges MaxMemEstimate a
// fixed 64 bytes per visited state — the 16-byte binary StateKey plus a
// constant allowance for the visited table's free slots, which take at
// most another 27 bytes per key once the table has grown past its
// initial 64 KiB — so the estimate is deterministic and independent of
// lock size, process count and memory model. The visited set is the
// dominant retained memory of an exploration: every check runs
// the one exploration engine, which walks one configuration per worker
// under an undo trail and keeps no per-state configuration copies.
// Liveness checking also keeps its state graph, and charges a measured
// per-node constant for it on top of the visited-set entry.
type Budget = run.Budget

// BudgetError reports which resource of a Budget was exhausted; every
// BudgetError matches ErrBudgetExceeded via errors.Is.
type BudgetError = run.BudgetError

// ErrBudgetExceeded is the sentinel matched by every budget violation.
var ErrBudgetExceeded = run.ErrBudgetExceeded

// IsLimit reports whether err is a resource-limit condition — a budget
// trip or a context cancellation/deadline — as opposed to a genuine
// failure of the work itself.
func IsLimit(err error) bool { return run.IsLimit(err) }

// FaultPlan describes faults injected into an execution: deterministic
// crash points, commit-stall windows, and an adversarial crash budget for
// exploratory checking. A nil plan injects nothing.
type FaultPlan = machine.FaultPlan

// CrashPoint schedules a deterministic crash of a process before a given
// schedule index.
type CrashPoint = machine.CrashPoint

// StallWindow suspends commits of a process's buffered writes while the
// global step count lies inside the window.
type StallWindow = machine.StallWindow

// Witness is the replayable failure artifact: a versioned JSON document
// bundling a violating schedule with the subject identity, fault plan and
// the fingerprints that certify a bit-for-bit replay.
type Witness = witness.Witness

// CheckOptions parameterizes the context-aware checking entry points.
type CheckOptions struct {
	// Budget bounds the run (zero fields = unlimited).
	Budget Budget
	// Faults is the fault plan to inject (nil = none). Exhaustive checking
	// accepts only the MaxCrashes budget; stall windows and fixed crash
	// points are for randomized search and replay.
	Faults *FaultPlan
	// Seed seeds the randomized fallback used when the state budget trips.
	Seed int64
	// FallbackRuns and FallbackMaxSteps size the randomized fallback
	// (0 = defaults: 2000 runs of up to 400 steps).
	FallbackRuns, FallbackMaxSteps int
	// Workers sizes the work-stealing explorer's goroutine pool; 0 (the
	// default) runs it with one worker. One worker is deterministic
	// (verdict, witness schedule, state count, budget-trip point); at
	// higher counts verdicts and complete-run state counts stay exact, POR
	// included, but which witness is found first and where a budget trips
	// become scheduling-dependent.
	// Workers above 1 and the checkpoint fields apply to mutual-exclusion
	// checking; CheckFCFSCtx and CheckLivenessCtx run one engine worker
	// without snapshots and reject them rather than silently ignoring them.
	Workers int
	// CheckpointPath, when non-empty, makes the exploration write periodic
	// atomic snapshots there. A later ResumeMutexCheckCtx continues from
	// the snapshot.
	CheckpointPath string
	// CheckpointEvery is the snapshot cadence floor in freshly interned
	// states (0 = the 1024 default; the interval grows geometrically with
	// the state space — see the internal CheckpointPolicy).
	CheckpointEvery int
	// ReorderBound > 0 switches exhaustive exploration under TSO/PSO to
	// reorder-bounded buffer semantics: each buffered write may reorder
	// past at most ReorderBound of its own process's later program-order
	// operations before the process must retire it. The bounded graph
	// under-approximates the full semantics, so a violation-free complete
	// run is a *bounded* certificate — MutexVerdict.Proved stays false and
	// Coverage.ReorderBound/BoundedComplete record what was shown. Every
	// violation found is genuine and its witness replays under the full
	// semantics. Inert under SC (reported as 0). Bounds above 255 are
	// rejected. The randomized fallback always searches the full
	// semantics; liveness and FCFS checking reject the flag.
	ReorderBound int
	// POR enables commit-step partial-order reduction (ample sets) in
	// exhaustive mutual-exclusion checking: provably independent
	// commit/step interleavings are explored once. Verdicts and witness
	// replayability are preserved, so a complete violation-free POR run is
	// still a full proof (Proved stays true); state counts shrink, by the
	// same amount at every worker count and after a resume (the cycle
	// proviso is decided from the program). Liveness and FCFS checking
	// reject the flag.
	POR bool
}

const (
	defaultFallbackRuns     = 2000
	defaultFallbackMaxSteps = 400
)

// oneWorker rejects, naming the first one set, the options a check that
// runs one engine worker without snapshots (FCFS, liveness) cannot honour.
func (o CheckOptions) oneWorker(what string) error {
	var opt string
	switch {
	case o.Workers > 1:
		opt = "Workers"
	case o.CheckpointPath != "":
		opt = "CheckpointPath"
	case o.CheckpointEvery != 0:
		opt = "CheckpointEvery"
	default:
		return nil
	}
	return fmt.Errorf("tradingfences: %s runs the exploration engine at one worker without snapshots; %s applies to mutual-exclusion checking only", what, opt)
}

func (o CheckOptions) fallback() (runs, maxSteps int) {
	runs, maxSteps = o.FallbackRuns, o.FallbackMaxSteps
	if runs <= 0 {
		runs = defaultFallbackRuns
	}
	if maxSteps <= 0 {
		maxSteps = defaultFallbackMaxSteps
	}
	return runs, maxSteps
}
