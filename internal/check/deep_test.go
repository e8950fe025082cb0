package check

import (
	"math/rand"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// Deep exhaustive checks, gated behind -short: larger process counts and
// multi-passage workloads that take seconds to minutes.

func TestDeepPetersonTwoPassagesAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	s, err := NewMutexSubject("peterson-2pass", locks.NewPeterson, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []machine.Model{machine.SC, machine.TSO, machine.PSO} {
		res, err := s.Exhaustive(bg(), m, statesOpt(10_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation {
			t.Fatalf("%v: violation across passages", m)
		}
		if !res.Complete {
			t.Fatalf("%v: %d states, not exhausted", m, res.States)
		}
	}
}

func TestDeepPetersonTSOSecondPassageStillBroken(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	// The PSO violation of the single-fence Peterson persists (and is
	// findable) in multi-passage workloads too.
	s, err := NewMutexSubject("peterson-tso-2pass", locks.NewPetersonTSO, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatal("expected a violation")
	}
}

func TestDeepTournamentThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	res := func() Result {
		s, err := NewMutexSubject("tournament3", locks.NewTournament, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Exhaustive(bg(), machine.PSO, statesOpt(20_000_000))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if res.Violation {
		t.Fatal("tournament violated with 3 processes")
	}
	if !res.Complete {
		t.Fatalf("state space not exhausted: %d states", res.States)
	}
}

func TestDeepGT2FourProcsRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	ctor := func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
		return locks.NewGT(l, nm, n, 2)
	}
	s, err := NewMutexSubject("gt2-4", ctor, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	res, err := s.Random(bg(), machine.PSO, rng, 400, 20_000, 0.3, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatalf("GT_2 violated under randomized PSO schedules (witness %d elems)", len(res.Witness))
	}
}

func TestDeepFilterLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	s, err := NewMutexSubject("filter", locks.NewFilter, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || !res.DeadlockFree || !res.WeakObstructionFree {
		t.Fatalf("filter liveness: %v", res)
	}
}

// Bakery stays FCFS with three processes: 376,593 product states.
func TestDeepBakeryFCFSThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("deep check")
	}
	s, err := NewFCFSSubject("bakery", locks.NewBakery, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(8_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation || !res.Complete || res.States != 376_593 {
		t.Fatalf("bakery n=3 FCFS: viol=%v complete=%v states=%d", res.Violation, res.Complete, res.States)
	}
}
