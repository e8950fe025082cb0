package rme

import (
	"context"
	"testing"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
)

func exhaust(t *testing.T, lock string, n, passages, crashes int, model machine.Model) check.Result {
	t.Helper()
	s, err := NewSubject(lock, n, passages)
	if err != nil {
		t.Fatalf("NewSubject(%s): %v", lock, err)
	}
	opts := check.Opts{}
	if crashes > 0 {
		opts.Faults = &machine.FaultPlan{MaxCrashes: crashes}
	}
	res, err := s.Exhaustive(context.Background(), model, opts)
	if err != nil {
		t.Fatalf("Exhaustive(%s, n=%d, crashes=%d, %v): %v", lock, n, crashes, model, err)
	}
	return res
}

// The safe recoverable locks keep mutual exclusion across every
// interleaving of crashes and recoveries, on every memory model.
func TestRecoverableFamilyProved(t *testing.T) {
	for _, lock := range []string{"rtas", "rbakery", "rtournament"} {
		for _, model := range []machine.Model{machine.SC, machine.TSO, machine.PSO} {
			res := exhaust(t, lock, 2, 1, 1, model)
			if res.Violation {
				t.Errorf("%s n=2 crashes=1 %v: unexpected violation (witness %v)", lock, model, res.Witness)
			}
			if !res.Complete {
				t.Errorf("%s n=2 crashes=1 %v: exploration incomplete", lock, model)
			}
		}
	}
}

// A deeper adversary: two crashes, which covers crash-during-recovery
// re-entry for every lock in the family.
func TestRecoverableFamilyProvedTwoCrashes(t *testing.T) {
	for _, lock := range []string{"rtas", "rbakery", "rtournament"} {
		res := exhaust(t, lock, 2, 1, 2, machine.PSO)
		if res.Violation || !res.Complete {
			t.Errorf("%s n=2 crashes=2 PSO: violation=%v complete=%v", lock, res.Violation, res.Complete)
		}
	}
}

// The negative control: a recovery section that frees the lock without
// checking ownership lets a crashed process release a rival's lock. One
// crash suffices to break exclusivity.
// Regression: the recoverable tournament must decrement its durable
// depth counter BEFORE each release clear commits, not after. With the
// reverse order a process that finishes its release but crashes before
// the final decrement recovers with depth over-reporting by one level;
// recovery then re-clears a path slot a rival has legitimately won in
// the meantime, erasing the rival's live root announce and letting a
// third process into the critical section beside it. Two processes
// cannot exhibit this (the freed subtree has no rival to win it), so
// the test needs n = 3 — which is exactly where the checker first found
// the bug (~0.5M states, a few seconds).
func TestRecoverableTournamentThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3 exhaustive exploration is a multi-second run")
	}
	res := exhaust(t, "rtournament", 3, 1, 1, machine.SC)
	if res.Violation {
		t.Fatalf("rtournament n=3 crashes=1: depth-counter regression (witness %v)", res.Witness)
	}
	if !res.Complete {
		t.Fatal("rtournament n=3 crashes=1: exploration incomplete")
	}
}

func TestRTASUnsafeViolated(t *testing.T) {
	res := exhaust(t, "rtas-unsafe", 2, 1, 1, machine.SC)
	if !res.Violation {
		t.Fatal("rtas-unsafe n=2 crashes=1 SC: expected a mutual-exclusion violation")
	}
	if len(res.InCS) < 2 {
		t.Fatalf("violation with %d processes in CS, want >= 2", len(res.InCS))
	}
	// And without crashes the same lock is correct — the bug is purely in
	// recovery, so it must not surface in crash-free executions.
	res = exhaust(t, "rtas-unsafe", 2, 1, 0, machine.SC)
	if res.Violation || !res.Complete {
		t.Fatalf("rtas-unsafe without crashes: violation=%v complete=%v, want proved", res.Violation, res.Complete)
	}
}

// Passage accounting: a completed exploration of a recoverable subject
// reports per-passage RMR watermarks under both CC and DSM rules.
func TestPassageStatsReported(t *testing.T) {
	res := exhaust(t, "rtas", 2, 1, 1, machine.SC)
	ps := res.Passages
	if ps == nil {
		t.Fatal("Result.Passages is nil for a subject with passage probes")
	}
	if ps.Count == 0 {
		t.Fatal("no passages recorded")
	}
	// A contended TAS lock costs at least one remote reference per
	// passage under both rules (the TAS itself is out-of-segment and
	// takes the line).
	if ps.MaxCC < 1 || ps.MaxDSM < 1 {
		t.Fatalf("watermarks MaxCC=%d MaxDSM=%d, want >= 1 each", ps.MaxCC, ps.MaxDSM)
	}
	if ps.SumCC < ps.MaxCC || ps.SumDSM < ps.MaxDSM {
		t.Fatalf("sums below maxima: %+v", *ps)
	}
}

// Four workers agree with one on verdicts for recoverable subjects, and
// report passage stats of their own.
func TestParallelMatchesSequential(t *testing.T) {
	for _, lock := range []string{"rtas", "rtas-unsafe"} {
		s, err := NewSubject(lock, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := check.Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}, Workers: 4}
		seq, err := s.Exhaustive(context.Background(), machine.SC, check.Opts{Faults: opts.Faults})
		if err != nil {
			t.Fatal(err)
		}
		par, err := s.ExhaustiveParallel(context.Background(), machine.SC, opts)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Violation != par.Violation {
			t.Fatalf("%s: one-worker violation=%v, four-worker violation=%v", lock, seq.Violation, par.Violation)
		}
		if par.Passages == nil {
			t.Fatalf("%s: parallel run reported no passage stats", lock)
		}
		// Passage watermarks are path-dependent (counters are excluded
		// from state keys), so the two runs' maxima may legitimately
		// differ; both must still be bounds witnessed by real executions.
		if !seq.Violation && (par.Passages.Count == 0 || seq.Passages.Count == 0) {
			t.Fatalf("%s: proved run closed no passages", lock)
		}
	}
}

// A violation witness of a crashed execution replays through the subject
// and reproduces co-residency — the foundation of the facade's witness
// artifacts for the rme op.
func TestUnsafeWitnessReplays(t *testing.T) {
	s, err := NewSubject("rtas-unsafe", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exhaustive(context.Background(), machine.SC, check.Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatal("expected violation")
	}
	_, cfg, err := s.Replay(machine.SC, res.Witness, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	in, n := 0, cfg.N()
	for p := 0; p < n; p++ {
		ok, err := s.InCS(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			in++
		}
	}
	if in < 2 {
		t.Fatalf("replayed witness ends with %d processes in CS, want >= 2", in)
	}
}

// Multiple passages per process: the passage counter is durable, so a
// crashed process finishes its remaining passages instead of restarting
// its workload, and the log sees (about) n*passages closures on any
// completed path.
func TestMultiPassage(t *testing.T) {
	res := exhaust(t, "rtas", 2, 2, 1, machine.SC)
	if res.Violation || !res.Complete {
		t.Fatalf("rtas n=2 passages=2 crashes=1: violation=%v complete=%v", res.Violation, res.Complete)
	}
	if res.Passages == nil || res.Passages.Count == 0 {
		t.Fatal("no passages recorded")
	}
}

func TestChanWoelfelBound(t *testing.T) {
	if b := ChanWoelfelBound(2); b != 1 {
		t.Fatalf("bound(2) = %v, want 1", b)
	}
	b3, b4, b64 := ChanWoelfelBound(3), ChanWoelfelBound(4), ChanWoelfelBound(64)
	if b3 <= 0 || b4 <= 0 {
		t.Fatalf("degenerate bounds: %v %v", b3, b4)
	}
	// The quotient is flat between n=4 and n=16 (4/2 == 2/1) but must have
	// grown by n=64.
	if b64 <= b4 {
		t.Fatalf("bound must grow: bound(64)=%v <= bound(4)=%v", b64, b4)
	}
}

func TestNamesAndUnknown(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v, want 4 entries", names)
	}
	if _, err := NewSubject("nope", 2, 1); err == nil {
		t.Fatal("NewSubject(nope) succeeded")
	}
}

// Partial-order reduction preserves recoverable-mutex verdicts: the safe
// family stays proved and the negative control stays refuted under POR,
// across models and crash budgets, with strictly fewer or equal states.
// Passage watermarks are NOT asserted equal — they are path-dependent
// maxima over the explored spanning tree, and the reduced exploration
// walks a different tree; both runs report certified lower bounds on the
// worst case.
func TestPORVerdictParityRME(t *testing.T) {
	run := func(lock string, crashes int, model machine.Model, por bool) check.Result {
		t.Helper()
		s, err := NewSubject(lock, 2, 1)
		if err != nil {
			t.Fatalf("NewSubject(%s): %v", lock, err)
		}
		opts := check.Opts{Reduction: check.Reduction{POR: por}}
		if crashes > 0 {
			opts.Faults = &machine.FaultPlan{MaxCrashes: crashes}
		}
		res, err := s.Exhaustive(context.Background(), model, opts)
		if err != nil {
			t.Fatalf("Exhaustive(%s, crashes=%d, %v, por=%v): %v", lock, crashes, model, por, err)
		}
		return res
	}
	for _, lock := range []string{"rtas", "rbakery", "rtournament", "rtas-unsafe"} {
		for _, crashes := range []int{0, 1} {
			for _, model := range []machine.Model{machine.SC, machine.TSO, machine.PSO} {
				base := run(lock, crashes, model, false)
				red := run(lock, crashes, model, true)
				if red.Violation != base.Violation || red.Complete != base.Complete {
					t.Errorf("%s crashes=%d %v: POR verdict drifted: violation %v/%v complete %v/%v",
						lock, crashes, model, base.Violation, red.Violation, base.Complete, red.Complete)
				}
				if !red.PORApplied {
					t.Errorf("%s crashes=%d %v: PORApplied not reported", lock, crashes, model)
				}
				if red.States > base.States {
					t.Errorf("%s crashes=%d %v: POR grew the state space: %d > %d",
						lock, crashes, model, red.States, base.States)
				}
			}
		}
	}
}
