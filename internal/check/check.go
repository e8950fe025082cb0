// Package check provides the model-checking substrate for the memory-model
// separation experiments: exhaustive exploration of all schedules (with
// visited-state pruning) and randomized schedule search, both hunting for
// mutual-exclusion violations of lock algorithms under SC, TSO and PSO.
//
// Critical sections are instrumented with two designated probe registers:
// a process is "in the critical section" exactly between the completion of
// its read of the entry probe and the completion of its read of the exit
// probe. Because both probes are shared-memory reads, occupancy is a
// function of the configuration alone (the process is poised at the exit-
// probe read), which makes violation detection exact.
package check

import (
	"context"
	"fmt"
	"math/rand"

	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// Subject is a checkable system: a factory for fresh initial configurations
// plus the exit-probe register that marks critical-section occupancy.
type Subject struct {
	// Name identifies the subject in reports.
	Name string
	// Build returns a fresh initial configuration.
	Build func(model machine.Model) (*machine.Config, error)
	// CSExit is the exit-probe register: a process poised at read(CSExit)
	// is inside the critical section.
	CSExit machine.Reg
	// Layout is the register layout of the instrumented system (nil when
	// the subject was hand-built); used to symbolize witness traces.
	Layout *machine.Layout
	// Passages, when non-nil, names the passage-delimiting probe registers
	// of a recoverable (RME) subject: each checker attaches a fresh
	// machine.PassageLog to the configurations it builds and reports the
	// observed per-passage RMR watermark in Result.Passages. See
	// internal/rme and machine/passage.go.
	Passages *machine.PassageProbes
	// Monitor, when non-nil, is a path monitor run alongside the machine
	// (FCFSSubject's precedence automaton). Its state starts at 0 on the
	// initial configuration; the engine carries it along every explored
	// path and folds it into the visited-set key, and Random feeds it too.
	// A step the monitor flags is the run's violation. Monitored runs reject
	// fault plans, reductions and checkpoints (see Opts.unsupported).
	Monitor PathMonitor
}

// PathMonitor is a finite automaton over step records whose whole state is
// one uint64: it advances state over the step rec and reports whether the
// step violates the monitored path property.
type PathMonitor func(state uint64, rec machine.StepRecord) (next uint64, violated bool)

// NewMutexSubject instruments the lock built by ctor for n processes with
// a minimal critical section (entry-probe read, exit-probe read) followed
// by release, a fence and return. Each process performs `passages`
// consecutive passages through the lock.
func NewMutexSubject(name string, ctor locks.Constructor, n, passages int) (*Subject, error) {
	if passages < 1 {
		return nil, fmt.Errorf("check: passages must be >= 1, got %d", passages)
	}
	lay := machine.NewLayout()
	lk, err := ctor(lay, "lk", n)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	probes, err := lay.Alloc("cs.probe", 2, machine.Unowned)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	csIn, csOut := probes.At(0), probes.At(1)

	passage := make([]lang.Stmt, 0, 16)
	passage = append(passage, lk.Acquire()...)
	passage = append(passage,
		lang.Read("_csin", lang.I(csIn)),
		lang.Read("_csout", lang.I(csOut)),
	)
	passage = append(passage, lk.Release()...)

	body := lang.For("_pass", lang.I(0), lang.I(int64(passages)), passage...)
	body = append(body, lang.Fence(), lang.Return(lang.I(0)))
	prog := lang.NewProgram(name, body...)

	progs := make([]*lang.Program, n)
	for i := range progs {
		progs[i] = prog
	}
	return &Subject{
		Name: name,
		Build: func(model machine.Model) (*machine.Config, error) {
			return machine.NewConfig(model, lay, progs)
		},
		CSExit: csOut,
		Layout: lay,
	}, nil
}

// InCS reports whether process p is inside the instrumented critical
// section: it is poised at the exit-probe read.
func (s *Subject) InCS(c *machine.Config, p int) (bool, error) {
	op, ok, err := c.NextOp(p)
	if err != nil {
		return false, err
	}
	return ok && op.Kind == lang.OpRead && op.Reg == s.CSExit, nil
}

// occupancy returns the processes currently inside the critical section.
func (s *Subject) occupancy(c *machine.Config) ([]int, error) {
	return s.occupancyInto(c, nil)
}

// occupancyInto appends the processes currently inside the critical
// section to in — the explorers' per-state hot path passes a reusable
// scratch slice (in[:0]) to keep occupancy checks allocation-free.
func (s *Subject) occupancyInto(c *machine.Config, in []int) ([]int, error) {
	for p := 0; p < c.N(); p++ {
		ok, err := s.InCS(c, p)
		if err != nil {
			return nil, err
		}
		if ok {
			in = append(in, p)
		}
	}
	return in, nil
}

// Result reports the outcome of a check.
type Result struct {
	// Violation is true if a reachable configuration has two or more
	// processes inside the critical section.
	Violation bool
	// Witness is the schedule leading to the violation (empty otherwise).
	Witness machine.Schedule
	// InCS lists the processes co-resident in the critical section at the
	// violation.
	InCS []int
	// States is the number of distinct states visited (exhaustive mode)
	// or steps taken (random mode).
	States int
	// Complete is true if the exhaustive search exhausted the reachable
	// state space within its bounds; a Complete result without Violation
	// is a proof of mutual exclusion for the subject's bounded workload.
	Complete bool
	// ResumedLevel is the snapshot generation a resumed parallel
	// exploration continued from (0 for a fresh run; see
	// ResumeExhaustiveParallel and Checkpoint.Level).
	ResumedLevel int
	// VisitedReused reports whether a resumed exploration could reuse the
	// checkpoint's visited-state set. Binary state keys are stable across
	// OS processes, so a certified resume normally reuses the shards;
	// when the snapshot's root key does not reproduce (defense in depth),
	// the shards are dropped and coverage is re-derived from the pending
	// entries — sound, but it may revisit states behind them (States then
	// overcounts the clean run).
	VisitedReused bool
	// ReorderBound echoes the reorder bound the exploration ran under
	// (0 = full buffer semantics; SC runs report 0 even when a bound was
	// requested — SC buffers are always empty, so the bound is an honest
	// no-op there). A Complete run under a positive bound covers only the
	// bounded semantics: callers must never present it as a full proof —
	// the facade keeps MutexVerdict.Proved false and tags Coverage with
	// the bound instead. Violations are genuine regardless: a bounded
	// witness replays identically under the full semantics.
	ReorderBound int
	// PORApplied reports that ample-set partial-order reduction was in
	// force; States then counts the reduced graph, the same at every
	// worker count and after a resume (see ExhaustiveParallel). Verdicts
	// are preserved exactly (the reduction is sound for the occupancy
	// invariant), so a Complete violation-free POR run is still a full
	// proof.
	PORApplied bool
	// Passages aggregates recoverable-passage RMR accounting when the
	// subject declares passage probes (nil otherwise, and nil on resumed
	// parallel runs — passage watermarks are not part of the checkpoint
	// schema). Because passage counters are excluded from state keys, the
	// maxima are a certified lower bound over the explored spanning tree,
	// and different explorers (or worker counts) may report different
	// (equally valid) watermarks.
	Passages *machine.PassageStats
	// Engine reports the work-stealing engine's behavior (workers,
	// steals, donations, parks, snapshots written). Every exhaustive
	// run sets it — Exhaustive is the engine at one worker; nil for the
	// random checker.
	Engine *EngineStats
}

// attachPassages enables passage accounting on a freshly built root when
// the subject declares probes, returning the log to snapshot at the end.
func (s *Subject) attachPassages(c *machine.Config) *machine.PassageLog {
	if s.Passages == nil {
		return nil
	}
	log := machine.NewPassageLog()
	c.EnablePassages(*s.Passages, log)
	return log
}

// fillPassages publishes the log's aggregate into the result (no-op when
// passage accounting is off).
func fillPassages(res *Result, log *machine.PassageLog) {
	if log != nil {
		st := log.Snapshot()
		res.Passages = &st
	}
}

// stateKeyOverhead is the fixed per-visited-state bookkeeping allowance
// added to the key size for memory budgeting. Each visited state is
// charged exactly machine.StateKeySize+stateKeyOverhead = 64 bytes. A
// grown visited table is at least 3/8 full, so it takes at most
// 16/(3/8) ≈ 43 bytes per key and the charge bounds it from above.
const stateKeyOverhead = 48

// stateKey returns the visited-set key of a configuration: its
// component-sum StateKey with the spent crash budget and any path-monitor
// state folded in as two more components. Identical machine states with
// different remaining crash budgets have different futures, and the
// monitor state decides which later steps violate, so both are part of
// the state; crash-free and unmonitored runs leave them out.
func (s *Subject) stateKey(c *machine.Config, crashes, maxCrashes int, mon uint64) (machine.StateKey, error) {
	key, err := c.StateKey()
	if err != nil {
		return machine.StateKey{}, err
	}
	if maxCrashes > 0 {
		key = key.Fold(machine.KeyTagCrashes, uint64(crashes))
	}
	if s.Monitor != nil {
		key = key.Fold(machine.KeyTagMonitor, mon)
	}
	return key, nil
}

// Exhaustive explores every schedule of the subject under the given model,
// pruning revisited states. It returns a violation witness if mutual
// exclusion fails, and Complete=true if the full reachable state space was
// covered.
//
// The exploration is bounded by opts.Budget and cancelled by ctx: when the
// budget trips or ctx is done, Exhaustive returns its partial result
// together with a structured error (*run.BudgetError, or the wrapped
// context error) — never a silent truncation. With a fault plan carrying a
// MaxCrashes budget, the search additionally injects up to MaxCrashes
// adversarial crash steps; crash elements appear in the witness like any
// other schedule element, so witnesses of crashed executions replay and
// minimize unchanged.
//
// Exhaustive is the work-stealing engine (ExhaustiveParallel) at one
// worker; opts.Workers is ignored. The worker walks a single configuration
// with an undo trail instead of cloning per candidate edge: each
// transition is taken in place with machine.Config.StepInto and rolled
// back with Undo.Revert on backtrack. Enumeration order (⊥, committable
// registers ascending, crash) and budget metering are those of the
// historical clone-per-edge search, so verdicts, witnesses, state counts
// and budget-trip points are bit-for-bit the same — the parity suite in
// parity_test.go holds the engine equal to a clone-per-edge reference.
func (s *Subject) Exhaustive(ctx context.Context, model machine.Model, opts Opts) (Result, error) {
	opts.Workers = 1
	return s.runWS(ctx, model, opts, nil, nil)
}

// Random drives the subject with `runs` random schedules of up to maxSteps
// elements each, drawn from rng, checking occupancy (and feeding the path
// monitor, if any) after every step. It can only find violations, never
// prove their absence. The run is bounded by opts.Budget and ctx (partial
// results are returned with the structured error); opts.Faults contributes
// stall windows and a randomized crash budget (see Opts.CrashProb).
func (s *Subject) Random(ctx context.Context, model machine.Model, rng *rand.Rand, runs, maxSteps int, commitProb float64, opts Opts) (Result, error) {
	if err := s.monitorOpts(opts); err != nil {
		return Result{}, err
	}
	meter := run.NewMeter(ctx, opts.Budget)
	maxCrashes, crashProb := opts.randomCrash()
	var res Result
	var plog *machine.PassageLog
	if s.Passages != nil {
		plog = machine.NewPassageLog()
	}
	for r := 0; r < runs; r++ {
		c, err := s.Build(model)
		if err != nil {
			return Result{}, err
		}
		c.SetFaultPlan(opts.Faults)
		if plog != nil {
			c.EnablePassages(*s.Passages, plog)
		}
		crashes := 0
		var mon uint64
		var path machine.Schedule
		for step := 0; step < maxSteps && !c.AllHalted(); step++ {
			if err := meter.AddStep(); err != nil {
				fillPassages(&res, plog)
				return res, err
			}
			var live []int
			for p := 0; p < c.N(); p++ {
				if !c.Halted(p) {
					live = append(live, p)
				}
			}
			p := live[rng.Intn(len(live))]
			e := machine.PBottom(p)
			if crashes < maxCrashes && rng.Float64() < crashProb {
				e = machine.PCrash(p)
			} else if regs := c.BufferRegs(p); len(regs) > 0 && rng.Float64() < commitProb {
				r := regs[rng.Intn(len(regs))]
				if c.CanCommit(p, r) {
					e = machine.PReg(p, r)
				}
			}
			rec, took, err := c.Step(e)
			if err != nil {
				return Result{}, err
			}
			if e.Crash && took {
				crashes++
			}
			path = append(path, e)
			res.States++
			flagged := false
			if took && s.Monitor != nil {
				mon, flagged = s.Monitor(mon, rec)
			}
			in, err := s.occupancy(c)
			if err != nil {
				return Result{}, err
			}
			if flagged || len(in) >= 2 {
				res.Violation = true
				res.Witness = path
				res.InCS = in
				fillPassages(&res, plog)
				return res, nil
			}
		}
	}
	fillPassages(&res, plog)
	return res, nil
}

// Replay re-executes a witness schedule on a fresh configuration — with
// faults (stall windows) installed when non-nil — and returns the recorded
// trace, for counterexample printing and witness verification. Crash
// elements inside the witness replay by themselves; the plan is only needed
// for stall windows.
func (s *Subject) Replay(model machine.Model, witness machine.Schedule, faults *machine.FaultPlan) (*machine.Trace, *machine.Config, error) {
	c, err := s.Build(model)
	if err != nil {
		return nil, nil, err
	}
	// A fresh passage log per replay: the returned configuration's
	// PassageStats then covers exactly this witness execution.
	s.attachPassages(c)
	c.SetFaultPlan(faults)
	tr := machine.NewTrace()
	c.SetTrace(tr)
	if _, err := c.Exec(witness); err != nil {
		return nil, nil, err
	}
	return tr, c, nil
}
