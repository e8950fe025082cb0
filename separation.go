package tradingfences

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
	"tradingfences/internal/witness"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Verdict modes: how a checking verdict was reached.
const (
	// ModeExhaustive: the verdict comes from exhaustive exploration
	// (complete, or stopped by a non-degradable limit).
	ModeExhaustive = "exhaustive"
	// ModeDegraded: the state/memory budget tripped and a seeded
	// randomized search continued the hunt. The verdict can refute but
	// not prove.
	ModeDegraded = "degraded"
	// ModeRandom: the verdict comes from randomized search only.
	ModeRandom = "random"
)

// Coverage quantifies how much exploration backs a verdict.
type Coverage struct {
	// ExhaustiveStates is the number of distinct states the exhaustive
	// phase interned before finishing or hitting its budget.
	ExhaustiveStates int
	// RandomSteps is the number of schedule steps executed by the
	// randomized phase (degraded or random mode).
	RandomSteps int
	// ReorderBound echoes the reorder bound the exhaustive phase ran
	// under (0 = full buffer semantics, including every SC run — the
	// bound is inert there and reported as such).
	ReorderBound int
	// BoundedComplete is true when the exhaustive phase exhausted the
	// *reorder-bounded* state space without finding a violation: a
	// certificate for executions within the bound, deliberately kept out
	// of Proved because the full semantics admit executions the bounded
	// graph never visits.
	BoundedComplete bool
	// POR is true when the exhaustive phase ran commit-step partial-order
	// reduction; ExhaustiveStates then counts the reduced graph's states.
	// POR preserves verdicts, so it never affects Proved.
	POR bool
}

// MutexVerdict is the outcome of checking one lock under one memory model.
type MutexVerdict struct {
	Lock  LockSpec
	Model MemoryModel
	// Violated is true if a reachable configuration with two processes in
	// the critical section was found.
	Violated bool
	// Proved is true if the state space was explored exhaustively without
	// finding a violation — a proof of mutual exclusion for the bounded
	// workload. Never true in degraded or random mode, and never true
	// under a reorder bound (CheckOptions.ReorderBound): a bounded
	// exploration under-approximates the full semantics, so its clean
	// completion is recorded as Coverage.BoundedComplete instead.
	Proved bool
	// States is the number of distinct states explored.
	States int
	// Mode records how the verdict was reached (see the Mode constants).
	Mode string
	// Coverage quantifies the exploration behind the verdict.
	Coverage Coverage
	// Witness is a human-readable counterexample trace (empty when no
	// violation was found).
	Witness string
	// WitnessSchedule is the violating schedule in the textual format of
	// ReplaySchedule (empty when no violation was found).
	WitnessSchedule string
	// Artifact is the replayable witness artifact for the violation (nil
	// when no violation was found). Serialize with EncodeWitness, replay
	// with ReplayWitness.
	Artifact *Witness
	// Passages reports the per-passage RMR watermarks observed during the
	// exploration, for subjects instrumented with passage probes (the RME
	// workload; nil for plain mutex subjects and for resumed parallel
	// runs). Maxima are certified lower bounds on the worst case: every
	// recorded passage occurred on a real explored execution, but passage
	// counters are excluded from state keys, so revisits along cheaper
	// prefixes are not re-counted.
	Passages *PassageStats
}

// newMutexSubject builds the instrumented workload for a lock spec.
func newMutexSubject(spec LockSpec, n, passages int) (*check.Subject, error) {
	ctor, err := spec.constructor()
	if err != nil {
		return nil, err
	}
	return check.NewMutexSubject(spec.String(), ctor, n, passages)
}

// ReplaySchedule re-executes a textual witness schedule (as found in
// MutexVerdict.WitnessSchedule) against a fresh instance of the lock's
// instrumented workload and returns the step-by-step trace. Crash elements
// ("p0!") replay like any other element; stall windows require the full
// witness artifact (see ReplayWitness).
func ReplaySchedule(spec LockSpec, n, passages int, model MemoryModel, schedule string) (string, error) {
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return "", err
	}
	sched, err := machine.ParseSchedule(schedule)
	if err != nil {
		return "", err
	}
	tr, _, err := subject.Replay(model.internal(), sched, nil)
	if err != nil {
		return "", err
	}
	return tr.Format(subject.Layout), nil
}

// mutexArtifact assembles the replayable witness artifact for a violating
// schedule: it replays the schedule on a fresh configuration and records
// the initial-configuration and trace fingerprints alongside the schedule,
// fault plan and subject identity. The formatted trace is returned too,
// for human-readable verdicts.
func mutexArtifact(subject *check.Subject, lockName string, n, passages int, model MemoryModel, sched machine.Schedule, faults *FaultPlan) (*Witness, string, error) {
	fresh, err := subject.Build(model.internal())
	if err != nil {
		return nil, "", err
	}
	configFP := fresh.IdentityFingerprint()
	tr, c, err := subject.Replay(model.internal(), sched, faults)
	if err != nil {
		return nil, "", fmt.Errorf("replay witness: %w", err)
	}
	var inCS []int
	for p := 0; p < c.N(); p++ {
		in, err := subject.InCS(c, p)
		if err != nil {
			return nil, "", err
		}
		if in {
			inCS = append(inCS, p)
		}
	}
	w := &Witness{
		Version:  witness.Version,
		Kind:     witness.KindMutex,
		Lock:     lockName,
		N:        n,
		Passages: passages,
		Model:    model.String(),
		Schedule: sched.String(),
		Faults:   faults.Clone(),
		ConfigFP: configFP,
		TraceFP:  tr.Fingerprint(),
		InCS:     inCS,
	}
	if subject.Passages != nil {
		// The replay attaches a fresh passage log, so these watermarks
		// cover exactly this witness execution.
		st := c.PassageStats()
		w.PassageCC, w.PassageDSM = st.MaxCC, st.MaxDSM
	}
	return w, tr.Format(subject.Layout), nil
}

// attachWitness minimizes a violating schedule (best-effort: a limit mid
// ddmin keeps the unminimized witness) and packages it as the verdict's
// replayable artifact and human-readable trace.
func attachWitness(ctx context.Context, subject *check.Subject, lockName string, n, passages int, model MemoryModel, v *MutexVerdict, wsched machine.Schedule, faults *FaultPlan) error {
	if !v.Violated || wsched == nil {
		return nil
	}
	minimized, merr := subject.MinimizeWitness(ctx, model.internal(), wsched, faults)
	if merr != nil {
		if !run.IsLimit(merr) {
			return fmt.Errorf("minimize witness: %w", merr)
		}
		minimized = wsched // keep the unminimized witness when cut short
	}
	w, formatted, aerr := mutexArtifact(subject, lockName, n, passages, model, minimized, faults)
	if aerr != nil {
		return aerr
	}
	v.Witness = formatted
	v.WitnessSchedule = minimized.String()
	v.Artifact = w
	return nil
}

// checkOpts lowers the facade options to the internal checker's, wiring
// the checkpoint policy (and its subject metadata) when a path is set.
// A worker count of 0 pins one worker (inside the engine 0 would resolve
// to NumCPU).
func (o CheckOptions) checkOpts(kind, lockName string, n, passages int) check.Opts {
	chk := check.Opts{
		Budget:    o.Budget,
		Faults:    o.Faults,
		Workers:   max(o.Workers, 1),
		Reduction: check.Reduction{ReorderBound: o.ReorderBound, POR: o.POR},
	}
	if o.CheckpointPath != "" {
		chk.Checkpoint = &check.CheckpointPolicy{
			Path:        o.CheckpointPath,
			EveryStates: o.CheckpointEvery,
			Meta:        check.CheckpointMeta{Kind: kind, Lock: lockName, N: n, Passages: passages},
		}
	}
	return chk
}

// CheckMutexCtx model-checks mutual exclusion of the lock for n processes
// performing `passages` passages each under the given memory model.
//
// The exhaustive search is bounded by opts.Budget and cancelled by ctx.
// When the state or memory budget trips, the checker degrades gracefully:
// a seeded randomized search (opts.Seed, opts.FallbackRuns × FallbackMaxSteps)
// continues the hunt and the verdict reports Mode == ModeDegraded with its
// Coverage — never a silent truncation. Non-degradable limits (steps, wall,
// context) return the partial verdict together with the structured error.
//
// A fault plan with a MaxCrashes budget makes the exhaustive search inject
// up to that many adversarial crash steps; a violation found this way has
// crash elements in its witness schedule and artifact.
//
// On violation the witness schedule is ddmin-minimized and packaged as a
// replayable artifact (MutexVerdict.Artifact).
func CheckMutexCtx(ctx context.Context, spec LockSpec, n, passages int, model MemoryModel, opts CheckOptions) (v *MutexVerdict, err error) {
	defer run.Recover("check mutex", &err)
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return nil, err
	}
	v, err = checkSubject(ctx, subject, spec.String(), n, passages, model, opts, opts.checkOpts("mutex", spec.String(), n, passages))
	if v != nil {
		v.Lock = spec
	}
	return v, err
}

// checkSubject is the subject-generic core of CheckMutexCtx, shared with
// the recoverable (RME) workload: exhaustive exploration, graceful
// degradation to randomized search on a tripped state budget, and witness
// minimization + artifact packaging on violation. The returned verdict's
// Lock spec is left zero; callers that check a LockSpec-named subject fill
// it in.
func checkSubject(ctx context.Context, subject *check.Subject, lockName string, n, passages int, model MemoryModel, opts CheckOptions, chkOpts check.Opts) (*MutexVerdict, error) {
	res, xerr := subject.ExhaustiveParallel(ctx, model.internal(), chkOpts)
	v := exhaustiveVerdict(model, res)
	wsched := res.Witness
	if xerr != nil {
		var be *run.BudgetError
		switch {
		case errors.As(xerr, &be) && be.Degradable():
			// Graceful degradation: the visited set outgrew its budget, so
			// continue with randomized search (which holds no visited set).
			runs, maxSteps := opts.fallback()
			rres, rerr := subject.Random(ctx, model.internal(), newRand(opts.Seed), runs, maxSteps, 0.35, chkOpts)
			v.Mode = ModeDegraded
			v.Proved = false
			v.Coverage.RandomSteps = rres.States
			if rres.Passages != nil {
				v.Passages = rres.Passages
			}
			if rres.Violation {
				v.Violated = true
				wsched = rres.Witness
			}
			if rerr != nil && !run.IsLimit(rerr) {
				return v, rerr
			}
		case run.IsLimit(xerr):
			v.Proved = false
			return v, xerr
		default:
			return nil, xerr
		}
	}
	if aerr := attachWitness(ctx, subject, lockName, n, passages, model, v, wsched, opts.Faults); aerr != nil {
		return v, aerr
	}
	return v, nil
}

// exhaustiveVerdict lowers an exhaustive engine result to a verdict with a
// zero Lock spec. A complete clean run under a reorder bound is a bounded
// certificate, not a proof: the bounded graph under-approximates the full
// semantics. POR needs no such demotion — it preserves verdicts exactly.
func exhaustiveVerdict(model MemoryModel, res check.Result) *MutexVerdict {
	return &MutexVerdict{
		Model:    model,
		Mode:     ModeExhaustive,
		Violated: res.Violation,
		Proved:   res.Complete && !res.Violation && res.ReorderBound == 0,
		States:   res.States,
		Coverage: Coverage{
			ExhaustiveStates: res.States,
			ReorderBound:     res.ReorderBound,
			BoundedComplete:  res.ReorderBound > 0 && res.Complete && !res.Violation,
			POR:              res.PORApplied,
		},
		Passages: res.Passages,
	}
}

// CheckMutexRandom hunts for mutual-exclusion violations with seeded random
// schedules (runs × maxSteps elements). It can only find violations, never
// prove correctness.
func CheckMutexRandom(spec LockSpec, n, passages int, model MemoryModel, seed int64, runs, maxSteps int) (*MutexVerdict, error) {
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return nil, err
	}
	res, err := subject.Random(context.Background(), model.internal(), newRand(seed), runs, maxSteps, 0.35, check.Opts{})
	if err != nil {
		return nil, err
	}
	return &MutexVerdict{
		Lock:     spec,
		Model:    model,
		Violated: res.Violation,
		States:   res.States,
		Mode:     ModeRandom,
		Coverage: Coverage{RandomSteps: res.States},
	}, nil
}

// LivenessVerdict reports the liveness analysis of a lock: deadlock
// freedom (requirement 2 of the paper's lock definition) and weak
// obstruction-freedom (the paper's Section 2 progress condition, implied
// by deadlock freedom).
type LivenessVerdict struct {
	Lock  LockSpec
	Model MemoryModel
	// States is the number of distinct reachable states explored.
	States int
	// Complete is true if the reachable state space was exhausted;
	// without it the two properties below are only refutable, not
	// provable.
	Complete bool
	// DeadlockFree: from every reachable state some schedule completes
	// all processes.
	DeadlockFree bool
	// WeakObstructionFree: wherever all processes but one are initial or
	// final, the remaining process terminates running alone.
	WeakObstructionFree bool
	// StuckStates counts states from which completion is unreachable.
	StuckStates int
}

// CheckLivenessCtx explores the full state graph of the lock (n processes,
// `passages` passages each) under the given memory model and verifies
// deadlock freedom and weak obstruction-freedom, bounded by opts.Budget and
// cancelled by ctx. Budget trips return the partial (inconclusive) verdict
// together with the structured error. The graph is recorded by the
// exploration engine at one worker without snapshots. Fault plans, the
// reductions, Workers > 1, CheckpointPath and CheckpointEvery are
// rejected rather than silently ignored: the analysis is defined for
// crash-free executions, and the reduction soundness arguments do not
// cover its successor graph.
func CheckLivenessCtx(ctx context.Context, spec LockSpec, n, passages int, model MemoryModel, opts CheckOptions) (v *LivenessVerdict, err error) {
	defer run.Recover("check liveness", &err)
	if err := opts.oneWorker("liveness checking"); err != nil {
		return nil, err
	}
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return nil, err
	}
	res, cerr := subject.CheckProgress(ctx, model.internal(), check.Opts{
		Budget: opts.Budget,
		Faults: opts.Faults,
		// Threaded so the liveness checker rejects them loudly: silently
		// dropping the flags would let a run that honoured none of them
		// masquerade as what the caller asked for.
		Reduction: check.Reduction{ReorderBound: opts.ReorderBound, POR: opts.POR},
	})
	if cerr != nil && (res == nil || !run.IsLimit(cerr)) {
		return nil, cerr
	}
	return &LivenessVerdict{
		Lock:                spec,
		Model:               model,
		States:              res.States,
		Complete:            res.Complete,
		DeadlockFree:        res.DeadlockFree,
		WeakObstructionFree: res.WeakObstructionFree,
		StuckStates:         res.StuckStates,
	}, cerr
}

// SeparationRow is one row of the separation matrix: a lock's verdicts
// under SC, TSO and PSO.
type SeparationRow struct {
	Lock     LockSpec
	Fences   int // fences per acquire (static property of the variant)
	Verdicts map[MemoryModel]*MutexVerdict
}

// SeparationMatrixCtx exhaustively checks the witness locks that realize
// the SC ⊋ TSO ⊋ PSO hierarchy (two processes, one passage each):
//
//	peterson-nofence: safe under SC only       (0 fences)
//	peterson-tso:     safe under SC, TSO       (1 fence)
//	peterson:         safe everywhere          (2 fences)
//	bakery-nofence:   safe under SC only       (0 fences)
//	bakery-tso:       safe under SC, TSO       (2 acquire fences)
//	bakery:           safe everywhere          (3 acquire fences)
//	bakery-literal:   broken even under SC     (erratum of Algorithm 1's
//	                                            printed line order)
//
// This is the behavioural half of the paper's separation result: the
// number of fences needed grows strictly as write ordering weakens.
//
// Every cell runs CheckMutexCtx under opts; opts.Workers routes it
// through the parallel explorer (cell verdicts are identical for any
// worker count). Checkpoint options are ignored — a single snapshot file
// cannot span the matrix's 18 independent checks.
func SeparationMatrixCtx(ctx context.Context, opts CheckOptions) ([]SeparationRow, error) {
	opts.CheckpointPath = ""
	entries := []struct {
		spec   LockSpec
		fences int
	}{
		{LockSpec{Kind: PetersonNoFence}, 0},
		{LockSpec{Kind: PetersonTSO}, 1},
		{LockSpec{Kind: Peterson}, 2},
		{LockSpec{Kind: BakeryNoFence}, 0},
		{LockSpec{Kind: BakeryTSO}, 2},
		{LockSpec{Kind: Bakery}, 3},
		{LockSpec{Kind: BakeryLiteral}, 3},
	}
	rows := make([]SeparationRow, 0, len(entries))
	for _, e := range entries {
		row := SeparationRow{
			Lock:     e.spec,
			Fences:   e.fences,
			Verdicts: make(map[MemoryModel]*MutexVerdict, 3),
		}
		for _, m := range Models() {
			v, err := CheckMutexCtx(ctx, e.spec, 2, 1, m, opts)
			if err != nil {
				return nil, fmt.Errorf("separation %v under %v: %w", e.spec, m, err)
			}
			row.Verdicts[m] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}
