package check

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

func gt2ctor(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
	return locks.NewGT(l, nm, n, 2)
}

// Bakery is first-come-first-served: exhaustive over the machine × monitor
// product for two processes.
func TestFCFSBakeryHolds(t *testing.T) {
	s, err := NewFCFSSubject("bakery", locks.NewBakery, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []machine.Model{machine.SC, machine.PSO} {
		res, err := s.Exhaustive(bg(), m, statesOpt(5_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation {
			t.Fatalf("%v: bakery FCFS violated (p%d overtook p%d, witness %d elems)",
				m, res.Violator, res.Overtaken, len(res.Witness))
		}
		if !res.Complete {
			t.Fatalf("%v: product space not exhausted (%d states)", m, res.States)
		}
	}
}

// Peterson (two processes) is FCFS with respect to its announce doorway.
func TestFCFSPetersonHolds(t *testing.T) {
	s, err := NewFCFSSubject("peterson", locks.NewPeterson, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("peterson FCFS violated (witness %d elems)", len(res.Witness))
	}
	if !res.Complete {
		t.Fatalf("product space not exhausted (%d states)", res.States)
	}
}

// GT_2 with three processes is NOT first-come-first-served: a process
// alone in its subtree can zoom through its first level and win the root
// before an earlier arrival from the contended subtree gets there. This is
// the fairness cost of trading fences for RMRs.
func TestFCFSGT2Violated(t *testing.T) {
	s, err := NewFCFSSubject("gt2", gt2ctor, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(8_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatalf("expected a GT_2 FCFS violation; searched %d states (complete=%v)",
			res.States, res.Complete)
	}
	if res.Violator != 2 || res.Overtaken != 1 {
		t.Fatalf("p%d overtook p%d, want p2 over p1", res.Violator, res.Overtaken)
	}
	// Replay the witness through the subject's path monitor: the overtake
	// must be flagged on the witness's last step and nowhere before it.
	c, err := s.Build(machine.PSO)
	if err != nil {
		t.Fatal(err)
	}
	var state uint64
	for i, e := range res.Witness {
		rec, took, err := c.Step(e)
		if err != nil {
			t.Fatal(err)
		}
		if !took {
			t.Fatalf("witness step %d (%v) did not take", i, e)
		}
		var bad bool
		state, bad = s.Monitor(state, rec)
		if bad != (i == len(res.Witness)-1) {
			t.Fatalf("monitor flagged=%v at step %d of %d", bad, i, len(res.Witness))
		}
		if bad && rec.P != res.Violator {
			t.Fatalf("flagged step by p%d, violator is p%d", rec.P, res.Violator)
		}
	}
}

// The GT_2 n=3 overtakes the one-worker exhaustive FCFS search reports.
const (
	gt2WitnessSC = "p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 " +
		"p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 " +
		"p1 p1 p1 p1 p1 p1 p2 p2 p1 p1 p2 p2 p2 p2"
	gt2WitnessBuffered = "p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 p0 " +
		"p0 p0 p0 p0 p0 p0 p0 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p1 p2 p2 p2 p2 p2 p2 " +
		"p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p2 p1 p1 p1 p1 p1 p1 p1 p1 p2 p2 p2 p1 p1 p2 p2 p2 p2"
)

// TestFCFSMonitorMatchesCloneReference: the engine at one worker threads
// the FCFS path monitor exactly like the clone reference walker — verdict,
// witness, violator and overtaken process, state count, and the
// budget-trip point at 25 and 500 states — and both reproduce the pinned
// counts and GT_2 witnesses.
func TestFCFSMonitorMatchesCloneReference(t *testing.T) {
	cases := []struct {
		name    string
		ctor    locks.Constructor
		n       int
		model   machine.Model
		states  int    // complete-run count, or the violation point
		witness string // p2 overtakes p1 along it; "" for a proof
	}{
		{"bakery", locks.NewBakery, 2, machine.SC, 1_209, ""},
		{"bakery", locks.NewBakery, 2, machine.TSO, 1_626, ""},
		{"bakery", locks.NewBakery, 2, machine.PSO, 1_626, ""},
		{"peterson", locks.NewPeterson, 2, machine.PSO, 1_254, ""},
		{"gt2", gt2ctor, 3, machine.SC, 751, gt2WitnessSC},
		{"gt2", gt2ctor, 3, machine.TSO, 1_127, gt2WitnessBuffered},
		{"gt2", gt2ctor, 3, machine.PSO, 1_127, gt2WitnessBuffered},
	}
	for _, tc := range cases {
		s, err := NewFCFSSubject(tc.name, tc.ctor, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, cap := range []int{25, 500, 8_000_000} {
			what := fmt.Sprintf("%s/n=%d/%v/cap=%d", tc.name, tc.n, tc.model, cap)
			eng, eerr := s.Exhaustive(bg(), tc.model, statesOpt(cap))
			ref, rerr := cloneExhaustive(bg(), &s.Subject, tc.model, statesOpt(cap))
			if (eerr == nil) != (rerr == nil) || run.IsLimit(eerr) != run.IsLimit(rerr) {
				t.Fatalf("%s: error mismatch: %v vs %v", what, eerr, rerr)
			}
			if eng.Violation != ref.Violation || eng.Complete != ref.Complete || eng.States != ref.States ||
				eng.Witness.String() != ref.Witness.String() {
				t.Fatalf("%s: engine (viol=%v complete=%v states=%d witness=%q) vs clone (viol=%v complete=%v states=%d witness=%q)",
					what, eng.Violation, eng.Complete, eng.States, eng.Witness, ref.Violation, ref.Complete, ref.States, ref.Witness)
			}
			if ref.Violation {
				v, o, err := s.overtake(tc.model, ref.Witness)
				if err != nil {
					t.Fatal(err)
				}
				if v != eng.Violator || o != eng.Overtaken {
					t.Fatalf("%s: clone witness decodes to p%d over p%d, engine reports p%d over p%d",
						what, v, o, eng.Violator, eng.Overtaken)
				}
			}
			if cap < tc.states {
				if !run.IsLimit(eerr) || eng.States != cap {
					t.Fatalf("%s: budget trip at %d states (err %v), want exactly %d", what, eng.States, eerr, cap)
				}
				continue
			}
			if eerr != nil || eng.States != tc.states {
				t.Fatalf("%s: %d states (err %v), want %d", what, eng.States, eerr, tc.states)
			}
			if tc.witness != "" {
				if !eng.Violation || eng.Witness.String() != tc.witness || eng.Violator != 2 || eng.Overtaken != 1 {
					t.Fatalf("%s: p%d over p%d with witness %q, want p2 over p1 with %q",
						what, eng.Violator, eng.Overtaken, eng.Witness, tc.witness)
				}
			} else if eng.Violation || !eng.Complete {
				t.Fatalf("%s: not proved: %+v", what, eng)
			}
		}
	}
}

// TestFCFSEngineWorkerCounts: the monitor rides through the engine's
// multi-worker paths too — donated schedules replayed by a thief — so
// complete-run counts stay exact and a found overtake replays.
func TestFCFSEngineWorkerCounts(t *testing.T) {
	bakery, err := NewFCFSSubject("bakery", locks.NewBakery, 2)
	if err != nil {
		t.Fatal(err)
	}
	gt2, err := NewFCFSSubject("gt2", gt2ctor, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		opts := statesOpt(8_000_000)
		opts.Workers = workers
		res, err := bakery.ExhaustiveParallel(bg(), machine.PSO, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation || !res.Complete || res.States != 1_626 {
			t.Fatalf("workers=%d: bakery FCFS viol=%v complete=%v states=%d, want a proof at 1,626",
				workers, res.Violation, res.Complete, res.States)
		}
		res, err = gt2.ExhaustiveParallel(bg(), machine.PSO, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Violation {
			t.Fatalf("workers=%d: GT_2 overtake not found (%d states)", workers, res.States)
		}
		if _, _, err := gt2.overtake(machine.PSO, res.Witness); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// The seeded random hunts are pinned step for step: GT_2 is overtaken
// (p2 over p1) after 973,246 steps, bakery survives 95,209.
func TestFCFSRandomPinned(t *testing.T) {
	gt2, err := NewFCFSSubject("gt2", gt2ctor, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gt2.Random(bg(), machine.PSO, newTestRng(5), 50_000, 600, 0.35, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation || res.States != 973_246 || res.Violator != 2 || res.Overtaken != 1 {
		t.Fatalf("GT_2 hunt: viol=%v steps=%d p%d over p%d", res.Violation, res.States, res.Violator, res.Overtaken)
	}
	bakery, err := NewFCFSSubject("bakery", locks.NewBakery, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = bakery.Random(bg(), machine.PSO, newTestRng(0), 2000, 400, 0.35, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation || res.States != 95_209 {
		t.Fatalf("bakery hunt: viol=%v steps=%d", res.Violation, res.States)
	}
}

// The monitor state lives in one uint64 and is not part of the checkpoint
// schema: more than seven processes, snapshots and resumes are refused.
func TestFCFSRejectsSnapshotsAndLargeN(t *testing.T) {
	if _, err := NewFCFSSubject("bakery", locks.NewBakery, 8); err == nil {
		t.Fatal("n=8 FCFS subject accepted")
	}
	s, err := NewFCFSSubject("bakery", locks.NewBakery, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2, Checkpoint: &CheckpointPolicy{Path: path}}); err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Fatalf("FCFS checking accepted a checkpoint policy: %v", err)
	}
	if _, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, &Checkpoint{}, Opts{}); err == nil || !strings.Contains(err.Error(), "snapshots") {
		t.Fatalf("FCFS checking accepted a resume: %v", err)
	}
}

// Randomized search also finds the GT_2 unfairness.
func TestFCFSRandomFindsGT2Violation(t *testing.T) {
	s, err := NewFCFSSubject("gt2", gt2ctor, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	res, err := s.Random(bg(), machine.PSO, rng, 50_000, 600, 0.3, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatal("random search did not find the GT_2 FCFS violation")
	}
}

// Locks without a declared doorway are rejected.
func TestFCFSRequiresDoorway(t *testing.T) {
	if _, err := NewFCFSSubject("tournament", locks.NewTournament, 2); err == nil {
		t.Fatal("tournament declares no doorway; subject should be rejected")
	}
}
