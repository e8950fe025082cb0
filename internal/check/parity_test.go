package check

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// parityPairs is the lock suite for key-partition parity: every lock
// family in internal/locks at a process count the clone reference walker
// exhausts quickly under all three models.
var parityPairs = []struct {
	name string
	ctor locks.Constructor
	n    int
}{
	{"peterson", locks.NewPeterson, 2},
	{"peterson-tso", locks.NewPetersonTSO, 2},
	{"peterson-nofence", locks.NewPetersonNoFence, 2},
	{"bakery", locks.NewBakery, 2},
	{"bakery-tso", locks.NewBakeryTSO, 2},
	{"bakery-literal", locks.NewBakeryLiteral, 2},
	{"bakery-nofence", locks.NewBakeryNoFence, 2},
	{"tournament", locks.NewTournament, 2},
	{"filter", locks.NewFilter, 2},
}

// requireViolationReplays replays a witness schedule and demands that it
// lands in a genuine mutual-exclusion violation.
func requireViolationReplays(t *testing.T, what string, s *Subject, model machine.Model, w machine.Schedule) {
	t.Helper()
	_, cfg, err := s.Replay(model, w, nil)
	if err != nil {
		t.Fatalf("%s: witness replay: %v", what, err)
	}
	in := 0
	for p := 0; p < cfg.N(); p++ {
		ok, err := s.InCS(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			in++
		}
	}
	if in < 2 {
		t.Fatalf("%s: witness replays to %d processes in the critical section, want >= 2", what, in)
	}
}

// TestBinaryKeysMatchLegacyPartition: the binary codec partitions states
// exactly like the legacy string fingerprint (Config.Fingerprint, the
// reference keying), so the engine and the clone reference walker keyed on
// fingerprints must produce bit-identical verdicts, witness schedules,
// co-residency sets and visited-state counts across the whole lock suite
// and all three models.
func TestBinaryKeysMatchLegacyPartition(t *testing.T) {
	for _, tc := range parityPairs {
		for _, m := range allModels {
			what := tc.name + "/" + m.String()
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			binary, berr := s.Exhaustive(bg(), m, Opts{})
			legacy, lerr := cloneWalk(bg(), s, m, Opts{}, fingerprintKey)
			if (berr == nil) != (lerr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, berr, lerr)
			}
			requireSameResult(t, what, binary, legacy)
			requireSameInCS(t, what, binary, legacy)
		}
	}
}

// TestBinaryKeysMatchLegacyAtBudgetTrip: equal partitions means equal
// exploration prefixes, so a MaxStates budget must trip both keyings at
// exactly the same point with the same partial result.
func TestBinaryKeysMatchLegacyAtBudgetTrip(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	const cap = 700
	binary, berr := s.Exhaustive(bg(), machine.PSO, statesOpt(cap))
	if !run.IsLimit(berr) {
		t.Fatalf("budget did not trip: %v", berr)
	}
	legacy, lerr := cloneWalk(bg(), s, machine.PSO, statesOpt(cap), fingerprintKey)
	if !run.IsLimit(lerr) {
		t.Fatalf("legacy budget did not trip: %v", lerr)
	}
	if binary.States != cap || legacy.States != cap {
		t.Fatalf("trip points differ from cap: binary %d, legacy %d, cap %d",
			binary.States, legacy.States, cap)
	}
	requireSameResult(t, "budget trip", binary, legacy)
}

// fingerprintKey keys a state on its legacy string fingerprint, the
// reference partition the binary codec must reproduce. Only unmonitored
// subjects are keyed this way, so it ignores the monitor state.
func fingerprintKey(c *machine.Config, crashes, maxCrashes int, _ uint64) (machine.StateKey, error) {
	fp, err := c.Fingerprint()
	if err != nil {
		return machine.StateKey{}, err
	}
	buf := []byte(fp)
	if maxCrashes > 0 {
		buf = binary.AppendUvarint(buf, uint64(crashes))
	}
	return machine.HashStateKey(buf), nil
}

// cloneExhaustive is the historical clone-per-edge exhaustive search, kept
// as the executable spec of the engine: identical enumeration order (⊥,
// committable registers ascending, crash), identical keying, identical
// budget metering and passage accounting — but every candidate edge is
// taken on a fresh clone instead of in place with StepUndo/Revert, and
// there is no frontier, stealing or checkpointing. Exhaustive (the engine
// at one worker) must match it bit for bit, including at budget-trip
// points and in RME passage watermarks. It honours the reorder bound and
// the subject's path monitor the way the engine does — the monitor sees
// each taken step before the target is keyed, and a flagged step ends the
// walk with the witness path+e — and ignores POR.
func cloneExhaustive(ctx context.Context, s *Subject, model machine.Model, opts Opts) (Result, error) {
	return cloneWalk(ctx, s, model, opts, s.stateKey)
}

// cloneWalk is cloneExhaustive with the visited set keyed by keyOf.
func cloneWalk(ctx context.Context, s *Subject, model machine.Model, opts Opts,
	keyOf func(c *machine.Config, crashes, maxCrashes int, mon uint64) (machine.StateKey, error)) (Result, error) {
	maxCrashes, err := opts.exhaustiveCrashBudget()
	if err != nil {
		return Result{}, err
	}
	root, err := s.Build(model)
	if err != nil {
		return Result{}, err
	}
	root.SetReorderBound(opts.Reduction.ReorderBound)
	plog := s.attachPassages(root)
	meter := run.NewMeter(ctx, opts.Budget)
	visited := make(map[machine.StateKey]struct{}, 1024)
	res := Result{
		Complete:     true,
		ReorderBound: root.ReorderBound(),
	}

	var dfs func(c *machine.Config, path machine.Schedule, crashes int, mon uint64) (bool, error)
	dfs = func(c *machine.Config, path machine.Schedule, crashes int, mon uint64) (bool, error) {
		key, err := keyOf(c, crashes, maxCrashes, mon)
		if err != nil {
			return false, err
		}
		if _, seen := visited[key]; seen {
			return false, nil
		}
		if err := meter.AddState(machine.StateKeySize + stateKeyOverhead); err != nil {
			return false, err
		}
		visited[key] = struct{}{}

		in, err := s.occupancy(c)
		if err != nil {
			return false, err
		}
		if len(in) >= 2 {
			res.Violation = true
			res.Witness = append(machine.Schedule(nil), path...)
			res.InCS = in
			return true, nil
		}

		for p := 0; p < c.N(); p++ {
			if c.Halted(p) {
				continue
			}
			elems := []machine.Elem{machine.PBottom(p)}
			for _, r := range c.BufferRegs(p) {
				if c.CanCommit(p, r) {
					elems = append(elems, machine.PReg(p, r))
				}
			}
			if crashes < maxCrashes {
				elems = append(elems, machine.PCrash(p))
			}
			for _, e := range elems {
				if err := meter.AddStep(); err != nil {
					return false, err
				}
				next := c.Clone()
				rec, took, err := next.Step(e)
				if err != nil {
					return false, err
				}
				if !took {
					continue
				}
				nm := mon
				if s.Monitor != nil {
					var bad bool
					if nm, bad = s.Monitor(mon, rec); bad {
						res.Violation = true
						res.Witness = append(append(machine.Schedule(nil), path...), e)
						return true, nil
					}
				}
				nc := crashes
				if e.Crash {
					nc++
				}
				found, err := dfs(next, append(path, e), nc, nm)
				if err != nil || found {
					return found, err
				}
			}
		}
		return false, nil
	}

	_, err = dfs(root, nil, 0, 0)
	res.States = len(visited)
	if err != nil || res.Violation {
		res.Complete = false
	}
	fillPassages(&res, plog)
	return res, err
}

// requireSameInCS extends requireSameResult with the violation's
// co-residency set (which requireSameResult does not compare).
func requireSameInCS(t *testing.T, what string, a, b Result) {
	t.Helper()
	if len(a.InCS) != len(b.InCS) {
		t.Fatalf("%s: InCS mismatch: %v vs %v", what, a.InCS, b.InCS)
	}
	for i := range a.InCS {
		if a.InCS[i] != b.InCS[i] {
			t.Fatalf("%s: InCS mismatch: %v vs %v", what, a.InCS, b.InCS)
		}
	}
}

// TestUndoExplorerMatchesCloneReference: the in-place step/revert explorer
// visits the exact state partition of the clone-based search — verdicts,
// witness schedules, co-residency sets and visited-state counts are
// bit-identical across the whole lock suite and all three models.
func TestUndoExplorerMatchesCloneReference(t *testing.T) {
	for _, tc := range parityPairs {
		for _, m := range allModels {
			what := tc.name + "/" + m.String()
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			undo, uerr := s.Exhaustive(bg(), m, Opts{})
			ref, rerr := cloneExhaustive(bg(), s, m, Opts{})
			if (uerr == nil) != (rerr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, uerr, rerr)
			}
			requireSameResult(t, what, undo, ref)
			requireSameInCS(t, what, undo, ref)
			if undo.Violation {
				requireViolationReplays(t, what, s, m, undo.Witness)
			}
		}
	}
}

// TestUndoExplorerMatchesCloneReferenceWithCrashes: the parity must
// survive adversarial crash budgets — crash steps swap out a process's
// buffer, interpreter state and knowledge cache, the most intrusive
// transitions the undo log has to reverse.
func TestUndoExplorerMatchesCloneReferenceWithCrashes(t *testing.T) {
	opts := Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}}
	for _, tc := range []struct {
		name string
		ctor locks.Constructor
	}{
		{"peterson", locks.NewPeterson},
		{"bakery", locks.NewBakery},
	} {
		for _, m := range allModels {
			what := tc.name + "/" + m.String() + "/crashes=1"
			s := mustSubject(t, tc.name, tc.ctor, 2)
			undo, uerr := s.Exhaustive(bg(), m, opts)
			ref, rerr := cloneExhaustive(bg(), s, m, opts)
			if (uerr == nil) != (rerr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, uerr, rerr)
			}
			requireSameResult(t, what, undo, ref)
			requireSameInCS(t, what, undo, ref)
		}
	}
}

// TestUndoExplorerMatchesCloneReferenceAtBudgetTrip: equal exploration
// order means a MaxStates budget must trip both explorers at exactly the
// same state with the same partial result.
func TestUndoExplorerMatchesCloneReferenceAtBudgetTrip(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	for _, cap := range []int{150, 700} {
		undo, uerr := s.Exhaustive(bg(), machine.PSO, statesOpt(cap))
		ref, rerr := cloneExhaustive(bg(), s, machine.PSO, statesOpt(cap))
		if !run.IsLimit(uerr) || !run.IsLimit(rerr) {
			t.Fatalf("cap %d: budgets did not trip: %v vs %v", cap, uerr, rerr)
		}
		if undo.States != cap || ref.States != cap {
			t.Fatalf("cap %d: trip points differ from cap: undo %d, clone %d", cap, undo.States, ref.States)
		}
		requireSameResult(t, "budget trip", undo, ref)
	}
}

// TestWSWorkersOneMatchesSequentialSuite: across the full lock suite and
// all three models, a single work-stealing worker is
// bit-identical to the clone reference walker — verdicts, witness
// schedules, co-residency sets and state counts — and never donates or
// steals. This is the engine's determinism anchor: workers=1 takes the
// direct enumeration flavor, so every charge and every visit happens in
// the reference order.
func TestWSWorkersOneMatchesSequentialSuite(t *testing.T) {
	for _, tc := range parityPairs {
		for _, m := range allModels {
			what := fmt.Sprintf("%s/%v", tc.name, m)
			s := mustSubject(t, tc.name, tc.ctor, tc.n)
			ref, rerr := cloneExhaustive(bg(), s, m, Opts{})
			par, perr := s.ExhaustiveParallel(bg(), m, Opts{Workers: 1})
			if (rerr == nil) != (perr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, rerr, perr)
			}
			requireSameResult(t, what, ref, par)
			requireSameInCS(t, what, ref, par)
			if es := par.Engine; es == nil || es.Workers != 1 || es.Steals != 0 || es.Donated != 0 {
				t.Fatalf("%s: a single worker has nobody to steal from: %+v", what, es)
			}
		}
	}
}

// TestWSWorkersOneMatchesSequentialWithCrashes: the bit-parity survives
// adversarial crash budgets — crash edges both mutate the most state and
// interact with the crashes-spent component of the visited keys.
func TestWSWorkersOneMatchesSequentialWithCrashes(t *testing.T) {
	opts := Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}}
	for _, tc := range []struct {
		name string
		ctor locks.Constructor
	}{
		{"peterson", locks.NewPeterson},
		{"bakery", locks.NewBakery},
	} {
		for _, m := range allModels {
			what := tc.name + "/" + m.String() + "/crashes=1/workers=1"
			s := mustSubject(t, tc.name, tc.ctor, 2)
			ref, rerr := cloneExhaustive(bg(), s, m, opts)
			popts := opts
			popts.Workers = 1
			par, perr := s.ExhaustiveParallel(bg(), m, popts)
			if (rerr == nil) != (perr == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, rerr, perr)
			}
			requireSameResult(t, what, ref, par)
			requireSameInCS(t, what, ref, par)
		}
	}
}

// TestWSCheckpointResumeWorkersOneBitParity: a workers=1 checkpointed run
// killed after its first snapshot and resumed with workers=1 lands
// bit-for-bit on the reference walker's proof — the facade's
// CheckpointPath mode (which pins one worker) keeps its deterministic
// contract across a kill/resume cycle.
func TestWSCheckpointResumeWorkersOneBitParity(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	ref, err := cloneExhaustive(bg(), s, machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 1, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 64},
	}); err == nil {
		t.Fatal("expected chaos kill")
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "workers=1 kill/resume", ref, resumed)
}
