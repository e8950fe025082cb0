package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	tf "tradingfences"
	"tradingfences/internal/check"
)

// proofInst is one lock whose mutual-exclusion proof the proof family
// runs, with the state counts the engine contract pins: the sequential
// full count (also exact at Workers 1, and at Workers 2 for non-RME
// locks) and the sequential POR count.
type proofInst struct {
	lockRef
	full, por int
}

// The proof workload's locks: bakery and GT_2 under PSO, and the rtas
// recoverable lock under SC with a 1-crash budget.
var proofHome = []proofInst{
	{lockRef{spec: tf.LockSpec{Kind: tf.Bakery}, n: 3, model: tf.PSO}, 77594, 30066},
	{lockRef{spec: tf.LockSpec{Kind: tf.GT, F: 2}, n: 3, model: tf.PSO}, 187885, 49580},
	{lockRef{rme: "rtas", n: 3, model: tf.SC, crashes: 1}, 70338, 39288},
}

// The proof probe on the frontier workload: the bakery and rtas proofs.
var proofProbe = []proofInst{proofHome[0], proofHome[2]}

// proofWorkers are the two engine settings every proof runs at: 0 is the
// facade default (the sequential DFS), 2 the work-stealing engine.
var proofWorkers = []int{0, 2}

type proofOp struct {
	inst    int
	por     bool
	workers int
}

// proofRun is one measured proof.
type proofRun struct {
	wall   time.Duration
	states int
	engine *check.EngineStats
}

type proofFamily struct {
	insts    []proofInst
	rng      *rand.Rand
	subjects []*check.Subject

	pending            []proofOp // the current pass, in its seeded order
	next               int
	passFull, passPOR  time.Duration
	fullPass, porPass  []float64 // seconds per pass over the full / POR proofs
	passes             int
	allocBytes, states uint64 // proofs only, so bytes_per_state excludes other families
	excess             int64  // RME Workers-2 states above the sequential count

	// Traced runs keep every measured proof by (instance, por, workers).
	runs map[proofOp][]proofRun
}

func newProofFamily(insts []proofInst, rng *rand.Rand) *proofFamily {
	return &proofFamily{insts: insts, rng: rng, runs: make(map[proofOp][]proofRun)}
}

// passUnits is the number of steps in one pass.
func (f *proofFamily) passUnits() int { return len(f.insts) * 2 * len(proofWorkers) }

// prepare builds every subject and lock the family uses.
func (f *proofFamily) prepare() error {
	f.subjects = f.subjects[:0]
	for _, in := range f.insts {
		s, err := in.subject()
		if err != nil {
			return err
		}
		if _, err := s.Build(machineModel(in.model)); err != nil {
			return err
		}
		f.subjects = append(f.subjects, s)
	}
	return nil
}

// step runs the next proof of the current pass; a pass is all the
// family's proofs (each lock in full and under POR, at both worker
// settings) in a seeded order. It reports whether the step ended a pass.
func (f *proofFamily) step(ctx context.Context, b *bench) (bool, error) {
	if f.next == len(f.pending) {
		f.pending = f.pending[:0]
		for i := range f.insts {
			for _, por := range []bool{false, true} {
				for _, w := range proofWorkers {
					f.pending = append(f.pending, proofOp{i, por, w})
				}
			}
		}
		f.rng.Shuffle(len(f.pending), func(i, j int) { f.pending[i], f.pending[j] = f.pending[j], f.pending[i] })
		f.next, f.passFull, f.passPOR = 0, 0, 0
	}
	op := f.pending[f.next]
	f.next++
	// Each proof starts from a collected heap, so the garbage of whatever
	// ran before it (another family's unit) does not decide how often its
	// own allocations trigger the collector.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := f.prove(ctx, b, op)
	runtime.ReadMemStats(&after)
	if err != nil {
		return false, err
	}
	f.allocBytes += after.TotalAlloc - before.TotalAlloc
	if op.por {
		f.passPOR += r.wall
	} else {
		f.passFull += r.wall
	}
	if f.next < len(f.pending) {
		return false, nil
	}
	f.passes++
	f.fullPass = append(f.fullPass, f.passFull.Seconds())
	f.porPass = append(f.porPass, f.passPOR.Seconds())
	return true, nil
}

// prove runs one proof and checks it against the pinned verdict and state
// counts. Untraced runs go through the root facade; traced runs call the
// subject directly, which also returns the engine's counters.
func (f *proofFamily) prove(ctx context.Context, b *bench, op proofOp) (proofRun, error) {
	in := f.insts[op.inst]
	name := fmt.Sprintf("%v por=%t workers=%d", in.lockRef, op.por, op.workers)
	var r proofRun
	var proved bool
	_, end := b.tr.begin(0, "check.proof")
	if b.tr == nil {
		v, err := in.checkFacade(ctx, tf.CheckOptions{POR: op.por, Workers: op.workers})
		r.wall = end()
		if err != nil {
			return r, fmt.Errorf("proof %s: %w", name, err)
		}
		proved, r.states = v.Proved && !v.Violated, v.States
	} else {
		res, err := f.exhaustive(ctx, op)
		r.wall = end()
		if err != nil {
			return r, fmt.Errorf("proof %s: %w", name, err)
		}
		proved, r.states, r.engine = res.Complete && !res.Violation, res.States, res.Engine
		f.runs[op] = append(f.runs[op], r)
	}
	f.states += uint64(r.states)

	want := -1 // no exact count promised
	switch {
	case op.workers == 0 && op.por:
		want = in.por
	case op.workers <= 1 && !op.por, op.workers > 1 && !op.por && in.rme == "":
		want = in.full
	case op.workers > 1 && !op.por:
		// The engine's RME discrepancy: counted, not failed (see NOTES.md).
		f.excess += int64(r.states - in.full)
	}
	ok := proved && (want < 0 || r.states == want)
	b.tally.op(ok, "proof %s: proved=%t states=%d want %d", name, proved, r.states, want)
	return r, nil
}

func (f *proofFamily) exhaustive(ctx context.Context, op proofOp) (check.Result, error) {
	in := f.insts[op.inst]
	opts := check.Opts{Faults: in.faults(), Workers: op.workers, Reduction: check.Reduction{POR: op.por}}
	if op.workers == 0 {
		return f.subjects[op.inst].Exhaustive(ctx, machineModel(in.model), opts)
	}
	return f.subjects[op.inst].ExhaustiveParallel(ctx, machineModel(in.model), opts)
}

func (f *proofFamily) report(m metrics) {
	m["proof_full_s"] = median(f.fullPass)
	m["proof_por_s"] = median(f.porPass)
	m["bytes_per_state"] = ratio(float64(f.allocBytes), float64(f.states))
}

// traceLayers measures what the traced passes cannot see from outside:
// a Workers-1 run of each full proof for the engine speedup, and two
// replica walks of each full proof (untimed, then with the per-call
// ledger) for the per-state layers. It runs after the traced passes.
func (f *proofFamily) traceLayers(ctx context.Context, b *bench, m metrics) error {
	var lg ledger
	lg.calibrate()
	var seqWall, untimedWall, timedWall, w1Wall, w2Wall time.Duration
	for i, in := range f.insts {
		seq := f.runs[proofOp{i, false, 0}]
		if len(seq) == 0 {
			return fmt.Errorf("trace: no sequential proof of %v", in.lockRef)
		}
		seqWall += seq[0].wall
		w1, err := f.prove(ctx, b, proofOp{i, false, 1})
		if err != nil {
			return err
		}
		w1Wall += w1.wall
		w2Wall += f.runs[proofOp{i, false, 2}][0].wall

		model := machineModel(in.model)
		for _, timed := range []bool{false, true} {
			lg.timed = timed
			_, end := b.tr.begin(0, "check.replica")
			states, violated, err := replicaWalk(ctx, f.subjects[i], model, in.crashes, &lg)
			wall := end()
			if err != nil {
				return fmt.Errorf("replica %v: %w", in.lockRef, err)
			}
			if timed {
				timedWall += wall
				lg.replayVisitedSet()
			} else {
				untimedWall += wall
			}
			b.tally.op(states == seq[0].states && !violated,
				"replica %v timed=%t: %d states (violation %t), Exhaustive %d", in.lockRef, timed, states, violated, seq[0].states)
		}
	}
	lg.report(m, untimedWall)
	m["check.replica_ratio"] = ratio(untimedWall.Seconds(), seqWall.Seconds())
	m["trace.overhead"] = ratio(timedWall.Seconds(), untimedWall.Seconds()) - 1
	m["check.engine.speedup"] = ratio(w1Wall.Seconds(), w2Wall.Seconds())

	// POR and engine counters, summed over every traced pass.
	sum := func(por bool, workers int) (states int64, wall time.Duration, es check.EngineStats) {
		for i := range f.insts {
			for _, r := range f.runs[proofOp{i, por, workers}] {
				states += int64(r.states)
				wall += r.wall
				if r.engine != nil {
					es.Steals += r.engine.Steals
					es.Parks += r.engine.Parks
					es.Donated += r.engine.Donated
					es.BatchLookups += r.engine.BatchLookups
				}
			}
		}
		return
	}
	fullSeq, fullSeqWall, _ := sum(false, 0)
	porSeq, porSeqWall, _ := sum(true, 0)
	fullWS, _, esFull := sum(false, 2)
	porWS, _, esPOR := sum(true, 2)
	m["check.por.state_ratio.seq"] = ratio(float64(fullSeq), float64(porSeq))
	m["check.por.state_ratio.ws"] = ratio(float64(fullWS), float64(porWS))
	m["check.por.ns_per_state_ratio"] = ratio(ratio(float64(porSeqWall), float64(porSeq)), ratio(float64(fullSeqWall), float64(fullSeq)))
	wsStates := float64(fullWS + porWS)
	m["check.engine.steals_per_kstate"] = 1000 * ratio(float64(esFull.Steals+esPOR.Steals), wsStates)
	m["check.engine.parks_per_kstate"] = 1000 * ratio(float64(esFull.Parks+esPOR.Parks), wsStates)
	m["check.engine.donated_per_kstate"] = 1000 * ratio(float64(esFull.Donated+esPOR.Donated), wsStates)
	m["check.engine.batch_lookups_per_state"] = ratio(float64(esFull.BatchLookups+esPOR.BatchLookups), wsStates)
	m["check.engine.excess_states"] = ratio(float64(f.excess), float64(f.passes))
	return nil
}
