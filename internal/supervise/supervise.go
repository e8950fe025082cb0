// Package supervise runs long exhaustive model-checking searches to
// completion in the presence of budget trips and worker failures. It wraps
// the parallel explorer of internal/check in a retry loop that resumes
// from the last on-disk checkpoint instead of restarting from zero, and
// escalates along a ladder when retries keep failing:
//
//	attempt 0   configured budget
//	attempt 1+  grow the tripped budgets (×BudgetGrowth per retry)
//	finally     degrade to a seeded randomized search (refute-only)
//
// The worker pool stays as configured on every attempt: each budget the
// ladder grows is charged per unit of work (a fixed charge per interned
// state, one per step), exactly at every worker count, so a smaller pool
// cannot make a tripped budget pass.
//
// Every attempt resumes from the newest checkpoint it can certify;
// snapshots that fail certification — corrupted bytes, truncated files,
// subject identity drift — are rejected and recorded, and the attempt
// falls back to a fresh start: the supervisor recovers when it can and
// fails closed when it cannot, but never trusts a snapshot it cannot
// certify. Exponential backoff between attempts keeps crash loops cheap.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// Modes of a supervised outcome.
const (
	// ModeExhaustive: the verdict comes from a completed (or violating)
	// exhaustive exploration, possibly after checkpointed retries.
	ModeExhaustive = "exhaustive"
	// ModeDegraded: every exhaustive attempt failed and the ladder ended
	// in a seeded randomized search; the verdict can refute but not prove.
	ModeDegraded = "degraded"
)

// Options configures a supervised check.
type Options struct {
	// Workers sizes the parallel explorer's pool (0 resolves to
	// runtime.NumCPU(), negative values to 1 — matching
	// check.Opts.Workers). Every attempt runs the same pool; attempt
	// reports carry the resolved count.
	Workers int
	// Budget bounds each attempt; the growth rung multiplies the bounded
	// resources by BudgetGrowth.
	Budget run.Budget
	// Faults is forwarded to the explorer (adversarial crash budget).
	Faults *machine.FaultPlan
	// Reduction is forwarded to the explorer (reorder-bounded buffer
	// semantics and commit-step partial-order reduction; see
	// check.Opts.Reduction). Checkpoints certify both modes, so resumed
	// attempts stay consistent automatically. The degraded randomized
	// fallback always searches the full semantics — reductions shrink
	// exhaustive graphs, not sampled runs.
	Reduction check.Reduction

	// MaxAttempts caps the exhaustive attempts before the randomized
	// fallback (default 3; the first run counts as attempt 0).
	MaxAttempts int
	// BackoffBase is the sleep before retry k (BackoffBase << k,
	// default 50ms). Sleep is injectable for tests.
	BackoffBase time.Duration
	Sleep       func(time.Duration)
	// BudgetGrowth multiplies the tripped budget's bounded resources on
	// each escalation (default 2.0).
	BudgetGrowth float64

	// CheckpointPath enables checkpoint/resume: attempts snapshot there
	// and retries resume from the newest certified snapshot. Empty
	// disables checkpointing (retries restart from zero). The supervised
	// run owns the path: unless Resume is set, a pre-existing file there
	// is removed before the first attempt, and a snapshot whose run ends
	// in a terminal verdict (proof or violation) is removed afterwards —
	// stale state from an earlier or unrelated run is never silently
	// continued.
	CheckpointPath string
	// Resume makes the first attempt pick up a certified snapshot already
	// present at CheckpointPath (e.g. from a killed earlier process)
	// instead of clearing it. The snapshot is still re-certified —
	// identity, model and crash budget must match — before it is trusted.
	Resume bool
	// CheckpointEvery is the snapshot cadence floor in freshly interned
	// states (default 1024; see check.CheckpointPolicy.EveryStates — the
	// effective interval grows geometrically with the visited set).
	CheckpointEvery int
	// Meta is stamped into snapshots for cross-process reconstruction.
	Meta check.CheckpointMeta

	// Seed, FallbackRuns and FallbackMaxSteps size the degraded
	// randomized fallback (defaults: 2000 runs × 400 steps).
	Seed                           int64
	FallbackRuns, FallbackMaxSteps int

	// WorkerFault is the chaos hook threaded to the explorer, extended
	// with the attempt index. Nil in production.
	WorkerFault func(attempt, level, worker int) error

	// OnAttempt, when non-nil, is invoked with each attempt's completed
	// report — after the attempt ran, before any backoff sleep — so
	// long-running supervised jobs can stream their escalation ladder
	// (the daemon's per-job decision log is built from these). The
	// callback runs on the supervising goroutine; it must not block for
	// long and must not call back into the supervisor.
	OnAttempt func(Attempt)
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.BudgetGrowth <= 1 {
		o.BudgetGrowth = 2
	}
	if o.FallbackRuns <= 0 {
		o.FallbackRuns = 2000
	}
	if o.FallbackMaxSteps <= 0 {
		o.FallbackMaxSteps = 400
	}
	return o
}

// Attempt reports one rung of the supervised run. The JSON names are the
// wire format of the serve daemon's job API and decision logs.
type Attempt struct {
	// Index is the attempt number (0 = first).
	Index int `json:"index"`
	// Workers is the resolved pool and Budget the escalated budget in
	// force.
	Workers int        `json:"workers"`
	Budget  run.Budget `json:"budget"`
	// ResumedLevel is the snapshot generation the attempt continued from
	// (0 = fresh start); VisitedReused whether its visited set certified.
	ResumedLevel  int  `json:"resumed_level"`
	VisitedReused bool `json:"visited_reused,omitempty"`
	// Steals, Donated, Parks and Checkpoints mirror the work-stealing
	// engine's counters for this attempt (check.EngineStats): whether
	// exploration scaled or starved, and how many snapshots the attempt
	// wrote.
	Steals      int64 `json:"steals,omitempty"`
	Donated     int64 `json:"donated,omitempty"`
	Parks       int64 `json:"parks,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// CheckpointRejected records why a snapshot was discarded before this
	// attempt ("" = none rejected): corrupted bytes, identity drift, etc.
	CheckpointRejected string `json:"checkpoint_rejected,omitempty"`
	// States is the visited-state count the attempt reached; Err why it
	// stopped ("" = success); Backoff the sleep that preceded it.
	States  int           `json:"states"`
	Err     string        `json:"err,omitempty"`
	Backoff time.Duration `json:"backoff_ns,omitempty"`
	// ErrKind classifies Err for decision logs — why the escalation
	// happened, not just its message: "" on success, "budget:steps",
	// "budget:states", "budget:wall" or "budget:memory" for a budget
	// trip on that resource, "worker" for a worker death, "drift" for a
	// checkpoint that failed certification, "panic" for a recovered
	// internal panic, "canceled" / "deadline" for context termination,
	// and "error" for anything else.
	ErrKind string `json:"err_kind,omitempty"`
}

// Cancellation causes. A scheduler that cancels a supervised run for its
// own reasons — preempting it onto its certified checkpoint to free a
// worker slot, or aborting it on a client's request — passes these as the
// context cancel cause so attempt reports and job outcomes say *why* the
// run stopped, not just that it was cancelled. The distinction matters
// downstream: a preempted run is re-queued resumable, an aborted one is
// terminal, and a plain cancellation is a drain.
var (
	// ErrPreempted: the run was parked on its checkpoint to yield its
	// worker slot to higher-priority work; it will be resumed as the same
	// passage (the recoverable-passage model of Chan–Woelfel).
	ErrPreempted = errors.New("supervise: preempted onto checkpoint")
	// ErrAborted: a client cancelled the job (the abortable-mutex analogy
	// of Pareek–Woelfel); the outcome is terminal.
	ErrAborted = errors.New("supervise: aborted by client")
)

// ClassifyCancel refines ClassifyErr with the context's cancellation
// cause: a "canceled" error whose cause is ErrPreempted or ErrAborted is
// reported as "preempted" or "aborted" respectively. Every other
// classification passes through unchanged.
func ClassifyCancel(ctx context.Context, err error) string {
	kind := ClassifyErr(err)
	if kind != "canceled" || ctx == nil {
		return kind
	}
	switch cause := context.Cause(ctx); {
	case errors.Is(cause, ErrPreempted):
		return "preempted"
	case errors.Is(cause, ErrAborted):
		return "aborted"
	}
	return kind
}

// ClassifyErr maps an attempt (or job) error to the ErrKind vocabulary
// above. Classification order matters: a worker killed by cancellation is
// reported as the cancellation, and a budget trip inside a worker is
// reported as the budget trip.
func ClassifyErr(err error) string {
	if err == nil {
		return ""
	}
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	var be *run.BudgetError
	if errors.As(err, &be) {
		return "budget:" + be.Resource
	}
	if errors.Is(err, check.ErrCheckpointDrift) {
		return "drift"
	}
	if errors.Is(err, run.ErrRecovered) {
		return "panic"
	}
	var we *check.WorkerError
	if errors.As(err, &we) {
		return "worker"
	}
	return "error"
}

// Outcome is the result of a supervised check.
type Outcome struct {
	// Result is the exhaustive result of the final (or last partial)
	// attempt.
	Result check.Result
	// Mode is ModeExhaustive or ModeDegraded.
	Mode string
	// Fallback is the randomized-search result when Mode is ModeDegraded.
	Fallback check.Result
	// Attempts reports every exhaustive attempt in order.
	Attempts []Attempt
}

// retryable classifies an attempt error: worker deaths and degradable or
// wall budget trips are retried (a resumed attempt restarts the wall
// clock, so wall retries make progress when checkpointing is on);
// cancellation and genuine failures are not.
func retryable(err error, checkpointing bool) bool {
	var we *check.WorkerError
	if errors.As(err, &we) {
		// A worker killed by cancellation is not a chaos casualty.
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	var be *run.BudgetError
	if errors.As(err, &be) {
		if be.Degradable() {
			return true
		}
		return be.Resource == "wall" && checkpointing
	}
	return false
}

// growBudget multiplies every bounded resource by g (unlimited resources
// stay unlimited).
func growBudget(b run.Budget, g float64) run.Budget {
	if b.MaxSteps > 0 {
		b.MaxSteps = int64(float64(b.MaxSteps) * g)
	}
	if b.MaxStates > 0 {
		b.MaxStates = int(float64(b.MaxStates) * g)
	}
	if b.MaxWall > 0 {
		b.MaxWall = time.Duration(float64(b.MaxWall) * g)
	}
	if b.MaxMemEstimate > 0 {
		b.MaxMemEstimate = int64(float64(b.MaxMemEstimate) * g)
	}
	return b
}

// CheckMutex supervises an exhaustive mutual-exclusion check of the
// subject under the given model: it retries failed attempts from the last
// certified checkpoint with exponential backoff, growing the budget, and
// degrades to a seeded randomized search only after the
// ladder is exhausted — replacing the old restart-from-zero degradation.
//
// The returned error is non-nil only for non-recoverable failures
// (cancellation, machine errors, a failing randomized fallback); budget
// exhaustion that ends in degradation is reported through Outcome.Mode.
func CheckMutex(ctx context.Context, subject *check.Subject, model machine.Model, o Options) (*Outcome, error) {
	o = o.withDefaults()
	if o.CheckpointPath != "" && !o.Resume {
		// This run owns the snapshot path. Whatever predates it — a
		// finished earlier run, a different configuration — must not be
		// resumed implicitly: clear it so every later load sees only
		// snapshots this run wrote. Failing to clear is a hard error;
		// proceeding could silently continue stale state.
		if err := os.Remove(o.CheckpointPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("supervise: clearing pre-existing checkpoint: %w", err)
		}
	}
	out := &Outcome{Mode: ModeExhaustive}
	budget := o.Budget
	// Resolve the pool size up front so attempt reports carry the actual
	// count.
	workers := o.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	var backoff time.Duration

	for attempt := 0; attempt < o.MaxAttempts; attempt++ {
		rep := Attempt{Index: attempt, Workers: workers, Budget: budget, Backoff: backoff}
		if backoff > 0 {
			o.Sleep(backoff)
		}

		chk := check.Opts{Budget: budget, Faults: o.Faults, Reduction: o.Reduction, Workers: workers}
		if o.CheckpointPath != "" {
			chk.Checkpoint = &check.CheckpointPolicy{
				Path: o.CheckpointPath, EveryStates: o.CheckpointEvery, Meta: o.Meta,
			}
		}
		if o.WorkerFault != nil {
			a := attempt
			chk.WorkerFault = func(level, worker int) error { return o.WorkerFault(a, level, worker) }
		}

		// A panic inside the explorer is recovered here, at the attempt
		// boundary, so the attempt report records it (ErrKind "panic")
		// instead of unwinding past the supervisor and losing the ladder.
		res, err := func() (res check.Result, err error) {
			defer run.Recover("supervised attempt", &err)
			ck := loadCertified(o.CheckpointPath, &rep)
			if ck != nil {
				res, err = subject.ResumeExhaustiveParallel(ctx, model, ck, chk)
				if err != nil && errors.Is(err, check.ErrCheckpointDrift) {
					// The snapshot decoded but does not certify against this
					// subject: fail closed, restart fresh.
					rep.CheckpointRejected = err.Error()
					res, err = subject.ExhaustiveParallel(ctx, model, chk)
				} else {
					rep.ResumedLevel = res.ResumedLevel
					rep.VisitedReused = res.VisitedReused
				}
			} else {
				res, err = subject.ExhaustiveParallel(ctx, model, chk)
			}
			return res, err
		}()
		rep.States = res.States
		if es := res.Engine; es != nil {
			rep.Steals = es.Steals
			rep.Donated = es.Donated
			rep.Parks = es.Parks
			rep.Checkpoints = es.Checkpoints
		}
		if err != nil {
			rep.Err = err.Error()
			rep.ErrKind = ClassifyCancel(ctx, err)
		}
		out.Attempts = append(out.Attempts, rep)
		out.Result = res
		if o.OnAttempt != nil {
			o.OnAttempt(rep)
		}

		if err == nil {
			// Terminal verdict: the snapshot on disk (if any) describes a
			// frontier below it. Drop it so a later run at the same path
			// starts fresh instead of resuming superseded state.
			if o.CheckpointPath != "" {
				os.Remove(o.CheckpointPath)
			}
			return out, nil // proof or violation
		}
		if !retryable(err, o.CheckpointPath != "") {
			return out, err
		}

		budget = growBudget(budget, o.BudgetGrowth)
		backoff = o.BackoffBase << attempt
	}

	// Ladder exhausted: degrade to randomized search (holds no visited
	// set, so it runs in constant memory where the exhaustive attempts
	// tripped).
	out.Mode = ModeDegraded
	rng := rand.New(rand.NewSource(o.Seed))
	fb, err := subject.Random(ctx, model, rng, o.FallbackRuns, o.FallbackMaxSteps, 0.35,
		check.Opts{Faults: o.Faults})
	out.Fallback = fb
	if err != nil && !run.IsLimit(err) {
		return out, fmt.Errorf("supervise: degraded fallback: %w", err)
	}
	return out, nil
}

// loadCertified reads and decodes the checkpoint file, recording (and
// swallowing) rejection of corrupted or unreadable snapshots. A missing
// file is a plain fresh start.
func loadCertified(path string, rep *Attempt) *check.Checkpoint {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			rep.CheckpointRejected = err.Error()
		}
		return nil
	}
	ck, err := check.DecodeCheckpoint(data)
	if err != nil {
		rep.CheckpointRejected = err.Error()
		return nil
	}
	return ck
}
