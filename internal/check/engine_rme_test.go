package check_test

import (
	"context"
	"fmt"
	"testing"

	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/rme"
)

// These engine tests need recoverable subjects, so they live in the
// external test package: internal/rme imports internal/check.

func rmeSubject(t *testing.T, lock string, n int) *check.Subject {
	t.Helper()
	s, err := rme.NewSubject(lock, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func oneCrash() check.Opts {
	return check.Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}}
}

// TestOneWorkerPORStateCounts pins the reduced state counts of the
// benchmark proofs, and requires every worker count to visit exactly them:
// the cycle proviso is static (lang.Program.FenceOnlyLoop), so a node's
// ample set does not depend on which worker reaches it, or when.
func TestOneWorkerPORStateCounts(t *testing.T) {
	gt2 := func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
		return locks.NewGT(l, nm, n, 2)
	}
	bakery, err := check.NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := check.NewMutexSubject("gt2", gt2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		s     *check.Subject
		model machine.Model
		opts  check.Opts
		want  int
	}{
		{"bakery n=3/PSO", bakery, machine.PSO, check.Opts{}, 30066},
		{"GT_2 n=3/PSO", gt, machine.PSO, check.Opts{}, 49580},
		{"rtas n=3/SC/1-crash", rmeSubject(t, "rtas", 3), machine.SC, oneCrash(), 39288},
		{"rbakery n=3/PSO/1-crash", rmeSubject(t, "rbakery", 3), machine.PSO, oneCrash(), 405098},
	} {
		for _, workers := range []int{1, 2, 4} {
			opts := tc.opts
			opts.Workers = workers
			opts.Reduction = check.Reduction{POR: true}
			res, err := tc.s.ExhaustiveParallel(context.Background(), tc.model, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !res.Complete || res.Violation || !res.PORApplied {
				t.Fatalf("%s workers=%d: POR run did not prove: %+v", tc.name, workers, res)
			}
			if res.States != tc.want {
				t.Fatalf("%s: %d states under POR at %d workers, want %d", tc.name, res.States, workers, tc.want)
			}
		}
	}
}

// TestNoShippedProgramHasFenceOnlyLoop: no lock in internal/locks and no
// recoverable lock of rme.Locks has a fence-only loop, so the static cycle
// proviso takes nothing from their reductions. Two-process locks reject
// n > 2; every other constructor is swept at n = 2..4, GT at heights 1
// and 2.
func TestNoShippedProgramHasFenceOnlyLoop(t *testing.T) {
	ctors := map[string]locks.Constructor{
		"bakery":           locks.NewBakery,
		"bakery-tso":       locks.NewBakeryTSO,
		"bakery-literal":   locks.NewBakeryLiteral,
		"bakery-nofence":   locks.NewBakeryNoFence,
		"peterson":         locks.NewPeterson,
		"peterson-tso":     locks.NewPetersonTSO,
		"peterson-nofence": locks.NewPetersonNoFence,
		"filter":           locks.NewFilter,
		"tournament":       locks.NewTournament,
		"deadlock-demo":    locks.NewDeadlockDemo,
		"rendezvous-demo":  locks.NewRendezvousDemo,
	}
	for f := 1; f <= 2; f++ {
		ctors[fmt.Sprintf("gt%d", f)] = func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
			return locks.NewGT(l, nm, n, f)
		}
	}
	for name, ctor := range rme.Locks {
		ctors[name] = ctor
	}
	checked := 0
	for name, ctor := range ctors {
		for n := 2; n <= 4; n++ {
			s, err := check.NewMutexSubject(name, ctor, n, 2)
			if err != nil {
				if n == 2 {
					t.Fatalf("%s n=2: %v", name, err)
				}
				continue
			}
			subjects := []*check.Subject{s}
			if _, ok := rme.Locks[name]; ok {
				rs, err := rme.NewSubject(name, n, 2)
				if err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
				subjects = append(subjects, rs)
			}
			for _, s := range subjects {
				c, err := s.Build(machine.PSO)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < c.N(); p++ {
					if c.Proc(p).Program().FenceOnlyLoop() {
						t.Errorf("%s n=%d: process %d's program has a fence-only loop", s.Name, n, p)
					}
				}
				checked++
			}
		}
	}
	t.Logf("%d subjects checked", checked)
}

// TestParallelWorkerCountInvarianceRME: complete recoverable proofs visit
// the same states at every worker count. A crash settles its victim
// first, so a thief that replays a stolen prefix without keying the nodes
// on it crashes into the same state the donor's DFS would have.
func TestParallelWorkerCountInvarianceRME(t *testing.T) {
	for _, tc := range []struct {
		lock  string
		n     int
		model machine.Model
	}{
		{"rtas", 2, machine.SC},
		{"rtas", 3, machine.SC},
		{"rbakery", 2, machine.PSO},
	} {
		s := rmeSubject(t, tc.lock, tc.n)
		want := -1
		for _, workers := range []int{1, 2, 4} {
			opts := oneCrash()
			opts.Workers = workers
			res, err := s.ExhaustiveParallel(context.Background(), tc.model, opts)
			if err != nil {
				t.Fatalf("%s n=%d workers=%d: %v", tc.lock, tc.n, workers, err)
			}
			if !res.Complete || res.Violation {
				t.Fatalf("%s n=%d workers=%d: did not prove: %+v", tc.lock, tc.n, workers, res)
			}
			if want < 0 {
				want = res.States
			}
			if res.States != want {
				t.Fatalf("%s n=%d/%v/1-crash: %d states at %d workers, %d at one",
					tc.lock, tc.n, tc.model, res.States, workers, want)
			}
		}
	}
}

// TestParallelWorkersOneMatchesSequentialWatermarks: a single worker walks
// the clone reference walker's DFS order exactly, so on recoverable
// subjects even the path-dependent per-passage RMR watermarks are
// bit-identical — the strongest form of the engine's one-worker contract.
func TestParallelWorkersOneMatchesSequentialWatermarks(t *testing.T) {
	for _, lock := range []string{"rtas", "rtas-unsafe"} {
		s := rmeSubject(t, lock, 2)
		ref, err := check.CloneExhaustive(context.Background(), s, machine.SC, oneCrash())
		if err != nil {
			t.Fatal(err)
		}
		opts := oneCrash()
		opts.Workers = 1
		par, err := s.ExhaustiveParallel(context.Background(), machine.SC, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Violation != par.Violation || ref.Complete != par.Complete ||
			ref.States != par.States || ref.Witness.String() != par.Witness.String() {
			t.Fatalf("%s: workers=1 diverged from the reference: %+v vs %+v", lock, par, ref)
		}
		if ref.Passages == nil || par.Passages == nil {
			t.Fatalf("%s: missing passage stats (ref=%v par=%v)", lock, ref.Passages, par.Passages)
		}
		if *ref.Passages != *par.Passages {
			t.Fatalf("%s: passage watermarks diverged: %+v vs %+v", lock, *par.Passages, *ref.Passages)
		}
	}
}
