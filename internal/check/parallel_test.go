package check

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// seedPairs are the witness lock/model pairs of the separation matrix: the
// acceptance surface for the work-stealing engine's determinism contract.
var seedPairs = []struct {
	name string
	ctor locks.Constructor
	n    int
}{
	{"peterson-nofence", locks.NewPetersonNoFence, 2},
	{"peterson-tso", locks.NewPetersonTSO, 2},
	{"peterson", locks.NewPeterson, 2},
	{"bakery-tso", locks.NewBakeryTSO, 2},
	{"bakery", locks.NewBakery, 2},
	{"bakery-literal", locks.NewBakeryLiteral, 2},
}

var allModels = []machine.Model{machine.SC, machine.TSO, machine.PSO}

func mustSubject(t *testing.T, name string, ctor locks.Constructor, n int) *Subject {
	t.Helper()
	s, err := NewMutexSubject(name, ctor, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func requireSameResult(t *testing.T, what string, a, b Result) {
	t.Helper()
	if a.Violation != b.Violation || a.Complete != b.Complete {
		t.Fatalf("%s: verdict mismatch: (viol=%v complete=%v) vs (viol=%v complete=%v)",
			what, a.Violation, a.Complete, b.Violation, b.Complete)
	}
	if a.States != b.States {
		t.Fatalf("%s: visited-state mismatch: %d vs %d", what, a.States, b.States)
	}
	if a.Witness.String() != b.Witness.String() {
		t.Fatalf("%s: witness mismatch:\n  %s\nvs\n  %s", what, a.Witness, b.Witness)
	}
}

// requireReplayViolation replays a witness and asserts it really shows two
// processes in the critical section.
func requireReplayViolation(t *testing.T, s *Subject, m machine.Model, w machine.Schedule) {
	t.Helper()
	_, c, err := s.Replay(m, w, nil)
	if err != nil {
		t.Fatalf("witness does not replay: %v", err)
	}
	in, err := s.occupancy(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) < 2 {
		t.Fatalf("replayed witness shows %v in CS", in)
	}
}

// Workers=1 is the engine's deterministic anchor: bit-identical to the
// clone reference walker in verdict, witness schedule and state count, for
// every seed lock/model pair.
func TestParallelWorkersOneMatchesSequential(t *testing.T) {
	for _, tc := range seedPairs {
		for _, m := range allModels {
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			ref, err := cloneExhaustive(bg(), s, m, Opts{})
			if err != nil {
				t.Fatalf("%s/%v reference: %v", tc.name, m, err)
			}
			par, err := s.ExhaustiveParallel(bg(), m, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v workers=1: %v", tc.name, m, err)
			}
			requireSameResult(t, tc.name+"/"+m.String(), ref, par)
			if par.Engine == nil || par.Engine.Workers != 1 {
				t.Fatalf("%s/%v: missing or wrong EngineStats: %+v", tc.name, m, par.Engine)
			}
			if par.Engine.Steals != 0 || par.Engine.Donated != 0 {
				t.Fatalf("%s/%v: a single worker has nobody to steal from: %+v", tc.name, m, par.Engine)
			}
		}
	}
}

// Workers ∈ {2, NumCPU} keep verdicts exact for every seed pair; complete
// runs additionally pin the exact state count, and violation witnesses —
// which are scheduling-dependent at >1 workers — must replay.
func TestParallelWorkerCountInvariance(t *testing.T) {
	for _, tc := range seedPairs {
		for _, m := range allModels {
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			base, err := s.ExhaustiveParallel(bg(), m, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v workers=1: %v", tc.name, m, err)
			}
			for _, w := range []int{2, runtime.NumCPU()} {
				got, err := s.ExhaustiveParallel(bg(), m, Opts{Workers: w})
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", tc.name, m, w, err)
				}
				if got.Violation != base.Violation || got.Complete != base.Complete {
					t.Fatalf("%s/%v workers=%d: verdict mismatch (viol=%v complete=%v) vs (viol=%v complete=%v)",
						tc.name, m, w, got.Violation, got.Complete, base.Violation, base.Complete)
				}
				if base.Complete && got.States != base.States {
					t.Fatalf("%s/%v workers=%d: complete run visited %d states, workers=1 visited %d",
						tc.name, m, w, got.States, base.States)
				}
				if got.Violation {
					requireReplayViolation(t, s, m, got.Witness)
				}
			}
		}
	}
}

// Opts.Workers resolution: 0 means one worker per CPU, an explicit 1 stays
// 1, negatives clamp to 1 (the satellite fix for the old <=1 asymmetry).
func TestWorkerCountResolution(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, runtime.NumCPU()},
		{1, 1},
		{-3, 1},
		{2, 2},
		{7, 7},
	}
	for _, tc := range cases {
		if got := (Opts{Workers: tc.in}).workerCount(); got != tc.want {
			t.Fatalf("workerCount(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	res, err := s.ExhaustiveParallel(bg(), machine.SC, Opts{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine == nil || res.Engine.Workers != runtime.NumCPU() {
		t.Fatalf("Workers=0 should resolve to NumCPU=%d, got %+v", runtime.NumCPU(), res.Engine)
	}
}

// The parallel explorer must agree with the recursive clone reference
// walker on every verdict, and on the exact state count for complete runs
// (both cover the full reachable space).
func TestParallelAgreesWithRecursive(t *testing.T) {
	for _, tc := range seedPairs {
		for _, m := range allModels {
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			dfs, err := cloneExhaustive(bg(), s, m, Opts{})
			if err != nil {
				t.Fatalf("%s/%v dfs: %v", tc.name, m, err)
			}
			par, err := s.ExhaustiveParallel(bg(), m, Opts{Workers: 4})
			if err != nil {
				t.Fatalf("%s/%v parallel: %v", tc.name, m, err)
			}
			if dfs.Violation != par.Violation || dfs.Complete != par.Complete {
				t.Fatalf("%s/%v: dfs (viol=%v complete=%v) vs parallel (viol=%v complete=%v)",
					tc.name, m, dfs.Violation, dfs.Complete, par.Violation, par.Complete)
			}
			if dfs.Complete && dfs.States != par.States {
				// On proofs both walkers cover the full reachable space;
				// on violations each stops at its first counterexample,
				// so the partial counts legitimately differ.
				t.Fatalf("%s/%v: dfs visited %d states, parallel %d", tc.name, m, dfs.States, par.States)
			}
			if par.Violation {
				requireReplayViolation(t, s, m, par.Witness)
			}
		}
	}
}

// Parallel exploration with an adversarial crash budget: workers=1 is
// bit-identical to the clone reference walker, and the multi-worker proof
// covers the identical state count (crash counts are folded into the
// visited keys, so the space itself is worker-count invariant).
func TestParallelCrashBudgetInvariance(t *testing.T) {
	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	opts := func(w int) Opts {
		return Opts{Workers: w, Faults: &machine.FaultPlan{MaxCrashes: 1}}
	}
	ref, err := cloneExhaustive(bg(), s, machine.PSO, Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.ExhaustiveParallel(bg(), machine.PSO, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "peterson/PSO crashes=1 workers=1", ref, base)
	got, err := s.ExhaustiveParallel(bg(), machine.PSO, opts(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Violation != base.Violation || got.Complete != base.Complete {
		t.Fatalf("crash-budget verdict drifted across worker counts")
	}
	if base.Complete && got.States != base.States {
		t.Fatalf("crash-budget state count drifted: %d vs %d", got.States, base.States)
	}
}

// A checkpointed run that is killed mid-flight (chaos hook keyed by the
// snapshot generation) and resumed in-process reaches the same certified
// verdict as an uninterrupted run — and the same state count when the run
// is a proof.
func TestCheckpointKillResumeSameVerdict(t *testing.T) {
	cases := []struct {
		name string
		ctor locks.Constructor
		m    machine.Model
	}{
		{"bakery", locks.NewBakery, machine.PSO},        // proof
		{"bakery-tso", locks.NewBakeryTSO, machine.PSO}, // violation
	}
	for _, tc := range cases {
		s := mustSubject(t, tc.name, tc.ctor, 2)
		clean, err := s.ExhaustiveParallel(bg(), tc.m, Opts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "ck.json")
		policy := &CheckpointPolicy{Path: path, EveryStates: 64,
			Meta: CheckpointMeta{Kind: "mutex", Lock: tc.name, N: 2, Passages: 1}}
		// No worker filter: with work stealing a given worker may park idle
		// for the whole run and never observe a generation change.
		kill := func(gen, worker int) error {
			if gen >= 1 {
				return errors.New("chaos: worker killed")
			}
			return nil
		}
		_, err = s.ExhaustiveParallel(bg(), tc.m, Opts{Workers: 2, Checkpoint: policy, WorkerFault: kill})
		var we *WorkerError
		if !errors.As(err, &we) {
			if err == nil && tc.m == machine.PSO && clean.Violation {
				// The violating run can legitimately finish before the
				// first snapshot generation on a fast schedule; the proof
				// case below still exercises the kill.
				continue
			}
			t.Fatalf("%s: want *WorkerError from killed run, got %v", tc.name, err)
		}
		if we.Level < 1 {
			t.Fatalf("%s: kill fired at generation %d, want >= 1", tc.name, we.Level)
		}

		ck, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: read checkpoint: %v", tc.name, err)
		}
		if ck.Level < 1 {
			t.Fatalf("%s: checkpoint at generation %d, want >= 1", tc.name, ck.Level)
		}
		resumed, err := s.ResumeExhaustiveParallel(bg(), tc.m, ck, Opts{Workers: 2})
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
		if !resumed.VisitedReused {
			t.Fatalf("%s: in-process resume should reuse the visited set", tc.name)
		}
		if resumed.ResumedLevel != ck.Level {
			t.Fatalf("%s: resumed from generation %d, checkpoint says %d", tc.name, resumed.ResumedLevel, ck.Level)
		}
		if resumed.Violation != clean.Violation || resumed.Complete != clean.Complete {
			t.Fatalf("%s: resumed verdict (viol=%v complete=%v) differs from clean (viol=%v complete=%v)",
				tc.name, resumed.Violation, resumed.Complete, clean.Violation, clean.Complete)
		}
		if clean.Complete && resumed.States != clean.States {
			t.Fatalf("%s: resumed proof visited %d states, clean visited %d", tc.name, resumed.States, clean.States)
		}
		if resumed.Violation {
			requireReplayViolation(t, s, tc.m, resumed.Witness)
		}
	}
}

// Binary state keys are build-stable: a resume in a fresh Subject
// instance (same identity, different AST pointers — exactly what a new OS
// process would see) certifies the snapshot's visited set, reuses it, and
// reproduces the clean verdict. Under the legacy string fingerprints this
// path had to drop the visited set and re-explore.
func TestCheckpointCrossProcessResumeSameVerdict(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	clean, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	policy := &CheckpointPolicy{Path: path, EveryStates: 64}
	kill := func(gen, worker int) error {
		if gen >= 2 {
			return errors.New("chaos: worker killed")
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2, Checkpoint: policy, WorkerFault: kill}); err == nil {
		t.Fatal("expected the chaos kill to fail the run")
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustSubject(t, "bakery", locks.NewBakery, 2)
	resumed, err := s2.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 2})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.VisitedReused {
		t.Fatal("binary keys are build-stable; a cross-subject resume must certify and reuse the visited set")
	}
	if resumed.Violation != clean.Violation || resumed.Complete != clean.Complete {
		t.Fatalf("verdict drifted across process boundary: (viol=%v complete=%v) vs (viol=%v complete=%v)",
			resumed.Violation, resumed.Complete, clean.Violation, clean.Complete)
	}
	if clean.Complete && resumed.States != clean.States {
		t.Fatalf("resumed proof visited %d states, clean visited %d", resumed.States, clean.States)
	}
}

// Budget trips surface the same structured errors as the clone reference
// walker with the partial result attached. The interned count sits exactly
// at the cap for every worker count (over-cap internings are rolled back),
// and workers=1 trips at the reference walker's point.
func TestParallelBudgetTripDeterministic(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	opts := func(w int) Opts {
		return Opts{Workers: w, Budget: run.Budget{MaxStates: 500}}
	}
	seq, seqErr := cloneExhaustive(bg(), s, machine.PSO, Opts{Budget: run.Budget{MaxStates: 500}})
	var be *run.BudgetError
	if !errors.As(seqErr, &be) || be.Resource != "states" {
		t.Fatalf("reference: want states BudgetError, got %v", seqErr)
	}
	base, err := s.ExhaustiveParallel(bg(), machine.PSO, opts(1))
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states BudgetError, got %v", err)
	}
	if base.Complete {
		t.Fatal("tripped run must not report completeness")
	}
	requireSameResult(t, "workers=1 budget trip", seq, base)
	for _, w := range []int{2, runtime.NumCPU()} {
		got, err := s.ExhaustiveParallel(bg(), machine.PSO, opts(w))
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: want BudgetError, got %v", w, err)
		}
		if got.States != 500 {
			t.Fatalf("workers=%d: tripped at %d states, want exactly the 500 cap", w, got.States)
		}
	}
}

// A worker killed by the chaos hook fails the run closed: a *WorkerError
// carrying the generation, no completeness claim, and — dead on arrival —
// no states explored (the root entry is never consumed).
func TestParallelWorkerFaultFailsClosed(t *testing.T) {
	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	res, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2,
		WorkerFault: func(gen, worker int) error {
			if gen == 0 {
				return errors.New("chaos: dead on arrival")
			}
			return nil
		},
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want WorkerError, got %v", err)
	}
	if we.Level != 0 {
		t.Fatalf("fault at generation %d, want 0", we.Level)
	}
	if res.Complete {
		t.Fatal("failed run must not claim completeness")
	}
	if res.States != 0 {
		t.Fatalf("both workers died on arrival, want 0 states, got %d", res.States)
	}
}

// Multi-worker runs on a big enough space actually steal: the engine's
// counters show work moving between workers, and the complete-run state
// count still matches the one-worker run exactly.
func TestParallelStealsAndStaysExact(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU runner: no parallelism to observe")
	}
	s, err := NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Exhaustive(bg(), machine.SC, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.ExhaustiveParallel(bg(), machine.SC, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Complete || par.States != seq.States {
		t.Fatalf("parallel proof diverged: complete=%v states=%d vs one worker %d",
			par.Complete, par.States, seq.States)
	}
	es := par.Engine
	if es == nil {
		t.Fatal("missing EngineStats")
	}
	if es.Donated == 0 {
		t.Fatalf("4 workers on %d states never donated: %+v", seq.States, es)
	}
}

// Donation/steal traffic under concurrent kill pressure must not corrupt
// the engine: run a pool where one worker dies at a random-ish point and
// assert the error surfaces as a WorkerError while the others shut down
// cleanly (no hang, no panic). Exercised under -race in CI.
func TestParallelKillDuringStealRace(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	_, err = s.ExhaustiveParallel(bg(), machine.SC, Opts{
		Workers: 4,
		Budget:  run.Budget{MaxStates: 20000},
		WorkerFault: func(gen, worker int) error {
			if calls.Add(1) == 3 {
				return errors.New("chaos: raced kill")
			}
			return nil
		},
	})
	var we *WorkerError
	if err != nil && !errors.As(err, &we) && !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("want WorkerError or budget trip, got %v", err)
	}
}

// TestStepTotalsExact: every complete bakery n=3/PSO proof charges the
// same step total, at any worker count and across a kill or a budget trip
// and a resume. Each
// successor is charged once, at descent or when it is donated, and a
// snapshot's stacks hold only uncharged successors. The total is pinned
// through the steps budget: a budget of exactly the total completes, one
// step less trips. An uncapped run's workers count their charges locally,
// so the kill case also pins that every worker flushes before a barrier
// reads the meter: the barrier snapshot's States equals its shard keys.
func TestStepTotalsExact(t *testing.T) {
	const states, steps = 77594, 249667
	s, err := NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := func(workers int, maxSteps int64) Opts {
		return Opts{Workers: workers, Budget: run.Budget{MaxSteps: maxSteps}}
	}
	requireProof := func(what string, res Result, err error) {
		t.Helper()
		if err != nil || !res.Complete || res.Violation || res.States != states {
			t.Fatalf("%s: complete=%v violation=%v states=%d err=%v, want a %d-state proof",
				what, res.Complete, res.Violation, res.States, err, states)
		}
	}
	requireStepTrip := func(what string, err error) {
		t.Helper()
		var be *run.BudgetError
		if !errors.As(err, &be) || be.Resource != "steps" {
			t.Fatalf("%s: want a steps BudgetError, got %v", what, err)
		}
	}
	for _, w := range []int{1, 2, 4} {
		res, err := s.ExhaustiveParallel(bg(), machine.PSO, budget(w, steps))
		requireProof(fmt.Sprintf("workers=%d", w), res, err)
		_, err = s.ExhaustiveParallel(bg(), machine.PSO, budget(w, steps-1))
		requireStepTrip(fmt.Sprintf("workers=%d, one step short", w), err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 2 {
			return errors.New("chaos: worker killed")
		}
		return nil
	}
	_, err = s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 2000}})
	var we *WorkerError
	if !errors.As(err, &we) || we.Level < 2 {
		t.Fatalf("want a kill at generation >= 2, got %v", err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	shardKeys := 0
	for _, shard := range ck.Shards {
		shardKeys += len(shard)
	}
	if ck.States != int64(shardKeys) {
		t.Fatalf("barrier snapshot charges %d states for %d shard keys", ck.States, shardKeys)
	}
	res, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, budget(2, steps))
	requireProof("resumed at workers=2", res, err)
	if res.ResumedLevel < 2 {
		t.Fatalf("resumed from generation %d, want >= 2", res.ResumedLevel)
	}
	_, err = s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, budget(2, steps-1))
	requireStepTrip("resumed at workers=2, one step short", err)

	// A budget trip parks its exact trip point: the meter gives back every
	// charge the engine rolls back (a failed charge, an interning undone,
	// an edge re-queued), so the trip snapshot's States equals its shard
	// keys, a steps trip's Steps stays within the cap, and the resume
	// charges the fresh run's totals exactly.
	for _, trip := range []run.Budget{{MaxSteps: 100_000}, {MaxStates: 30_000}} {
		for _, w := range []int{1, 2, 4} {
			what := fmt.Sprintf("%+v trip at workers=%d", trip, w)
			path := filepath.Join(t.TempDir(), "trip.json")
			_, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: w, Budget: trip,
				Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 1 << 30}})
			if !run.IsLimit(err) {
				t.Fatalf("%s: want a budget trip, got %v", what, err)
			}
			ck, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			keys := 0
			for _, shard := range ck.Shards {
				keys += len(shard)
			}
			if ck.States != int64(keys) {
				t.Fatalf("%s: snapshot charges %d states for %d shard keys", what, ck.States, keys)
			}
			if trip.MaxSteps > 0 && ck.Steps > trip.MaxSteps {
				t.Fatalf("%s: snapshot charges %d steps over the cap", what, ck.Steps)
			}
			if trip.MaxStates > 0 && ck.States > int64(trip.MaxStates) {
				t.Fatalf("%s: snapshot charges %d states over the cap", what, ck.States)
			}
			res, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, budget(w, steps))
			requireProof(what+", resumed", res, err)
			_, err = s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, budget(w, steps-1))
			requireStepTrip(what+", resumed one step short", err)
		}
	}
}
