package check

import (
	"context"
	"fmt"
	"math/rand"

	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// FCFSSubject instruments a lock that declares a wait-free doorway for
// first-come-first-served checking (Lamport's fairness notion: if p
// completes its doorway before q enters its doorway, then q does not enter
// the critical section before p).
//
// Three probe reads delimit the phases:
//
//	read(DS)   — doorway start
//	<doorway>
//	read(DE)   — doorway end
//	<waiting>
//	read(CS)   — critical-section entry
//	<release>
//
// FCFS is a *path* property, so the subject carries a path monitor
// (Subject.Monitor): a finite precedence automaton over the probe reads,
// which records which doorway-precedence pairs hold and who has entered
// the critical section. The engine explores the product of machine state
// and monitor state and folds the monitor into the visited-set key, which
// keeps the pruning sound. CSExit is machine.InvalidReg, so the
// mutual-exclusion occupancy check never fires.
type FCFSSubject struct {
	Subject
	mon fcfsMonitor
}

// maxFCFSProcs is the largest process count whose monitor state — two
// phase bits per process and an n×n precedence matrix — fits one uint64.
const maxFCFSProcs = 7

// NewFCFSSubject builds the instrumented workload (one passage per
// process). The lock must declare a doorway, and n must not exceed 7.
func NewFCFSSubject(name string, ctor locks.Constructor, n int) (*FCFSSubject, error) {
	if n > maxFCFSProcs {
		return nil, fmt.Errorf("check: FCFS checking supports at most %d processes, got %d", maxFCFSProcs, n)
	}
	lay := machine.NewLayout()
	lk, err := ctor(lay, "lk", n)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if !lk.HasDoorway() {
		return nil, fmt.Errorf("check: lock %s declares no doorway; FCFS is undefined for it", lk.Name())
	}
	probes, err := lay.Alloc("fcfs.probe", 3, machine.Unowned)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	ds, de, cs := probes.At(0), probes.At(1), probes.At(2)

	stmts := []lang.Stmt{lang.Read("_ds", lang.I(ds))}
	stmts = append(stmts, lk.Doorway()...)
	stmts = append(stmts, lang.Read("_de", lang.I(de)))
	stmts = append(stmts, lk.Waiting()...)
	stmts = append(stmts, lang.Read("_cs", lang.I(cs)))
	stmts = append(stmts, lk.Release()...)
	stmts = append(stmts, lang.Fence(), lang.Return(lang.I(0)))
	prog := lang.NewProgram(name, stmts...)

	progs := make([]*lang.Program, n)
	for i := range progs {
		progs[i] = prog
	}
	mon := fcfsMonitor{ds: ds, de: de, cs: cs, n: n}
	return &FCFSSubject{
		Subject: Subject{
			Name: name,
			Build: func(model machine.Model) (*machine.Config, error) {
				return machine.NewConfig(model, lay, progs)
			},
			CSExit:  machine.InvalidReg,
			Layout:  lay,
			Monitor: mon.observe,
		},
		mon: mon,
	}, nil
}

// fcfsMonitor is the precedence automaton over a packed uint64 state: bits
// 2p..2p+1 hold process p's phase (0 = before doorway, 1 = in doorway,
// 2 = waiting, 3 = in/past CS), and bit 2n+p*n+q is set when p completed
// its doorway before q started its own. The packing is injective, so the
// product partition is the one the monitor's (phase, precedence) tuple
// induces.
type fcfsMonitor struct {
	ds, de, cs machine.Reg
	n          int
}

func (m fcfsMonitor) phase(state uint64, p int) uint64 { return state >> (2 * p) & 3 }

func (m fcfsMonitor) precedes(state uint64, p, q int) bool {
	return state>>(2*m.n+p*m.n+q)&1 != 0
}

// step advances the monitor over rec. It returns the overtaken process q
// when rec is a critical-section entry by p while some q with doorway
// precedence over p has not entered yet, and -1 otherwise.
func (m fcfsMonitor) step(state uint64, rec machine.StepRecord) (uint64, int) {
	if rec.Kind != machine.StepRead {
		return state, -1
	}
	p := rec.P
	enter := func(ph uint64) { state = state&^(3<<(2*p)) | ph<<(2*p) }
	switch rec.Reg {
	case m.ds:
		enter(1)
		// Everyone who already finished their doorway precedes p.
		for q := 0; q < m.n; q++ {
			if q != p && m.phase(state, q) >= 2 {
				state |= 1 << (2*m.n + q*m.n + p)
			}
		}
	case m.de:
		enter(2)
	case m.cs:
		enter(3)
		for q := 0; q < m.n; q++ {
			if q != p && m.precedes(state, q, p) && m.phase(state, q) < 3 {
				return state, q
			}
		}
	}
	return state, -1
}

// observe is step as a PathMonitor: any overtake flags the step.
func (m fcfsMonitor) observe(state uint64, rec machine.StepRecord) (uint64, bool) {
	next, overtaken := m.step(state, rec)
	return next, overtaken >= 0
}

// FCFSResult reports the outcome of an FCFS check.
type FCFSResult struct {
	// Violation is true if an execution was found in which a process
	// enters the critical section before another process that completed
	// its doorway first.
	Violation bool
	// Violator overtook Overtaken.
	Violator, Overtaken int
	// Witness is the violating schedule.
	Witness machine.Schedule
	// States is the number of distinct (machine × monitor) states
	// (exhaustive mode) or steps taken (random mode).
	States int
	// Complete is true if the product state space was exhausted; together
	// with !Violation it proves FCFS for the bounded workload.
	Complete bool
}

// Exhaustive explores all schedules over the product of machine state and
// precedence monitor — the engine at one worker (Subject.Exhaustive) —
// bounded by opts.Budget and cancelled by ctx (budget trips return the
// partial result with a structured error). Fault plans, state-space
// reductions and checkpoints are rejected (see Opts.unsupported): the
// monitor is not crash-aware and changes on steps the commit-independence relation treats as
// invisible.
func (s *FCFSSubject) Exhaustive(ctx context.Context, model machine.Model, opts Opts) (FCFSResult, error) {
	res, err := s.Subject.Exhaustive(ctx, model, opts)
	return s.result(model, res, err)
}

// Random hunts for FCFS violations with random schedules, bounded by
// opts.Budget and cancelled by ctx. It rejects the same options as
// Exhaustive.
func (s *FCFSSubject) Random(ctx context.Context, model machine.Model, rng *rand.Rand, runs, maxSteps int, commitProb float64, opts Opts) (FCFSResult, error) {
	res, err := s.Subject.Random(ctx, model, rng, runs, maxSteps, commitProb, opts)
	return s.result(model, res, err)
}

// result lowers an engine or random result, decoding who overtook whom by
// replaying the witness through the monitor.
func (s *FCFSSubject) result(model machine.Model, res Result, err error) (FCFSResult, error) {
	out := FCFSResult{Violation: res.Violation, Witness: res.Witness, States: res.States, Complete: res.Complete}
	if res.Violation {
		var derr error
		if out.Violator, out.Overtaken, derr = s.overtake(model, res.Witness); derr != nil {
			return out, derr
		}
	}
	return out, err
}

// overtake replays a witness through the precedence monitor and reports
// the first overtake on it: violator entered the critical section before
// overtaken, which had completed its doorway first. It errors when the
// witness does not replay or contains no overtake.
func (s *FCFSSubject) overtake(model machine.Model, witness machine.Schedule) (violator, overtaken int, err error) {
	c, err := s.Build(model)
	if err != nil {
		return 0, 0, err
	}
	var state uint64
	for _, e := range witness {
		rec, took, err := c.Step(e)
		if err != nil {
			return 0, 0, err
		}
		if !took {
			continue
		}
		var q int
		if state, q = s.mon.step(state, rec); q >= 0 {
			return rec.P, q, nil
		}
	}
	return 0, 0, fmt.Errorf("check: FCFS witness %q replays to no overtake", witness)
}
