package check

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// porOpts enumerates the option axes the POR parity suite crosses with the
// lock suite and the memory models: crash budgets.
var porOptAxes = []struct {
	name string
	base Opts
}{
	{"plain", Opts{}},
	{"crash1", Opts{Faults: &machine.FaultPlan{MaxCrashes: 1}}},
}

// TestPORVerdictParity: commit-step partial-order reduction must preserve
// every verdict of the unreduced explorer across the whole lock suite, all
// three models and adversarial crash budgets — with never
// more states, and with violation witnesses that replay concretely.
func TestPORVerdictParity(t *testing.T) {
	for _, tc := range parityPairs {
		for _, m := range allModels {
			for _, ax := range porOptAxes {
				what := tc.name + "/" + m.String() + "/" + ax.name
				s := mustSubject(t, tc.name, tc.ctor, tc.n)
				base, berr := s.Exhaustive(bg(), m, ax.base)
				opts := ax.base
				opts.Reduction = Reduction{POR: true}
				por, perr := s.Exhaustive(bg(), m, opts)
				if (berr == nil) != (perr == nil) {
					t.Fatalf("%s: error mismatch: %v vs %v", what, berr, perr)
				}
				if !por.PORApplied {
					t.Fatalf("%s: PORApplied not reported", what)
				}
				if por.Violation != base.Violation || por.Complete != base.Complete {
					t.Fatalf("%s: verdict flipped under POR: (viol=%v complete=%v) vs (viol=%v complete=%v)",
						what, base.Violation, base.Complete, por.Violation, por.Complete)
				}
				if por.States > base.States {
					t.Fatalf("%s: POR grew the state space: %d > %d", what, por.States, base.States)
				}
				if por.Violation {
					requireViolationReplays(t, what, s, m, por.Witness)
				}
			}
		}
	}
}

// TestPORReducesBuffered: under a buffered model the reduction must be
// real, not a no-op — a proved run explores strictly fewer states.
func TestPORReducesBuffered(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	base, err := s.Exhaustive(bg(), machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	por, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{POR: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Complete || base.Violation || !por.Complete || por.Violation {
		t.Fatalf("bakery/PSO should prove: base %+v por %+v", base, por)
	}
	if por.States >= base.States {
		t.Fatalf("POR shows no reduction on bakery/PSO: %d vs %d states", por.States, base.States)
	}
	t.Logf("bakery/PSO: %d states unreduced, %d under POR (%.2fx)",
		base.States, por.States, float64(base.States)/float64(por.States))
}

// TestReorderBoundFindsViolations: the bounded semantics keep every
// store→load reordering a broken lock needs, so the known-broken locks
// still violate at the smallest bound — and the bounded witness replays
// under the full semantics (the bound only suppresses steps; every
// witness element genuinely took its step).
func TestReorderBoundFindsViolations(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctor locks.Constructor
		m    machine.Model
	}{
		{"peterson-nofence", locks.NewPetersonNoFence, machine.TSO},
		{"peterson-nofence", locks.NewPetersonNoFence, machine.PSO},
		{"bakery-nofence", locks.NewBakeryNoFence, machine.PSO},
	} {
		what := tc.name + "/" + tc.m.String() + "/k=1"
		s := mustSubject(t, tc.name, tc.ctor, 2)
		res, err := s.Exhaustive(bg(), tc.m, Opts{Reduction: Reduction{ReorderBound: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Violation {
			t.Fatalf("%s: violation not found under bound", what)
		}
		if res.ReorderBound != 1 {
			t.Fatalf("%s: ReorderBound = %d, want 1", what, res.ReorderBound)
		}
		requireViolationReplays(t, what, s, tc.m, res.Witness)
	}
}

// TestReorderBoundHonest: the bounded semantics under-approximate, and the
// result must say so. bakery-nofence violates under full TSO, but at bound 1
// the violating reordering is suppressed: the bounded run completes
// violation-free — a bounded certificate that must carry ReorderBound so no
// facade ever promotes it to a proof. On the paper's fully fenced locks the
// bound is inert (every write is fenced before the next program step, so
// reorder ages never rise): bakery/PSO explores the identical graph. Under
// SC the bound is an honest no-op: buffers are always empty, and the result
// reports ReorderBound = 0 with a bit-identical exploration.
func TestReorderBoundHonest(t *testing.T) {
	nf := mustSubject(t, "bakery-nofence", locks.NewBakeryNoFence, 2)
	full, err := nf.Exhaustive(bg(), machine.TSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Violation {
		t.Fatalf("bakery-nofence/TSO should violate unbounded: %+v", full)
	}
	bounded, err := nf.Exhaustive(bg(), machine.TSO, Opts{Reduction: Reduction{ReorderBound: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Violation || !bounded.Complete || bounded.ReorderBound != 1 {
		t.Fatalf("bounded bakery-nofence/TSO: %+v", bounded)
	}

	// A violating hunt gets cheaper under the bound: fewer states stand
	// between the root and a genuine witness.
	pnf := mustSubject(t, "peterson-nofence", locks.NewPetersonNoFence, 2)
	pfull, err := pnf.Exhaustive(bg(), machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pnf.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !pfull.Violation || !pb.Violation || pb.States >= pfull.States {
		t.Fatalf("bound did not shrink the hunt: %d vs %d states", pb.States, pfull.States)
	}

	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	fenced, err := s.Exhaustive(bg(), machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	fencedBounded, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fencedBounded.Violation || !fencedBounded.Complete || fencedBounded.States != fenced.States {
		t.Fatalf("fenced bakery/PSO not inert under bound: %+v vs %+v", fencedBounded, fenced)
	}

	sc, err := s.Exhaustive(bg(), machine.SC, Opts{Reduction: Reduction{ReorderBound: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sc.ReorderBound != 0 {
		t.Fatalf("SC run reports ReorderBound = %d, want honest 0", sc.ReorderBound)
	}
	scBase, err := s.Exhaustive(bg(), machine.SC, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "SC bound no-op", scBase, sc)
}

// TestReorderBoundRange: out-of-range bounds are rejected up front.
func TestReorderBoundRange(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	if _, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: -1}}); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: machine.MaxReorderBound + 1}}); err == nil {
		t.Fatal("bound above MaxReorderBound accepted")
	}
}

// TestReorderBoundComposesPOR: the two reductions stack — POR over the
// bounded semantics preserves the bounded verdict (the reorder gate is
// process-local state, so the independence arguments are unchanged).
func TestReorderBoundComposesPOR(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctor locks.Constructor
	}{
		{"bakery", locks.NewBakery},
		{"peterson-nofence", locks.NewPetersonNoFence},
	} {
		s := mustSubject(t, tc.name, tc.ctor, 2)
		bounded, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: 2}})
		if err != nil {
			t.Fatal(err)
		}
		both, err := s.Exhaustive(bg(), machine.PSO, Opts{Reduction: Reduction{ReorderBound: 2, POR: true}})
		if err != nil {
			t.Fatal(err)
		}
		if both.Violation != bounded.Violation || both.Complete != bounded.Complete {
			t.Fatalf("%s: POR flipped the bounded verdict: %+v vs %+v", tc.name, both, bounded)
		}
		if both.ReorderBound != 2 || !both.PORApplied {
			t.Fatalf("%s: composition not reported: %+v", tc.name, both)
		}
		if both.States > bounded.States {
			t.Fatalf("%s: POR grew the bounded space: %d > %d", tc.name, both.States, bounded.States)
		}
		if both.Violation {
			requireViolationReplays(t, tc.name+"/bounded+por", s, machine.PSO, both.Witness)
		}
	}
}

// TestPORParallelParity: the work-stealing engine under POR preserves every
// verdict at one worker and at several, across the lock suite and models.
// Complete reduced runs never exceed the unreduced count, and at two
// workers they visit exactly the one-worker count (the cycle proviso is
// static).
// Violations carry replayable witnesses.
func TestPORParallelParity(t *testing.T) {
	for _, tc := range parityPairs {
		for _, m := range allModels {
			one := -1
			for _, workers := range []int{1, 2} {
				what := tc.name + "/" + m.String()
				s := mustSubject(t, tc.name, tc.ctor, tc.n)
				base, err := s.Exhaustive(bg(), m, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				par, err := s.ExhaustiveParallel(bg(), m, Opts{
					Workers:   workers,
					Reduction: Reduction{POR: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !par.PORApplied {
					t.Fatalf("%s w=%d: PORApplied not reported", what, workers)
				}
				if par.Violation != base.Violation || par.Complete != base.Complete {
					t.Fatalf("%s w=%d: verdict flipped: %+v vs %+v", what, workers, par, base)
				}
				if par.Complete && par.States > base.States {
					t.Fatalf("%s w=%d: POR grew the state space: %d > %d", what, workers, par.States, base.States)
				}
				if par.Complete {
					if one < 0 {
						one = par.States
					}
					if par.States != one {
						t.Fatalf("%s w=%d: %d reduced states, %d at one worker", what, workers, par.States, one)
					}
				}
				if par.Violation {
					requireViolationReplays(t, what, s, m, par.Witness)
				}
			}
		}
	}
}

// TestReorderBoundParallelParity: Workers=1 with a reorder bound is
// bit-identical to the bounded clone reference walker, and Workers=2 keeps
// the bounded verdict and complete-run state count exact.
func TestReorderBoundParallelParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctor locks.Constructor
		m    machine.Model
		k    int
	}{
		{"bakery-nofence", locks.NewBakeryNoFence, machine.TSO, 1},
		{"peterson-nofence", locks.NewPetersonNoFence, machine.PSO, 1},
		{"bakery", locks.NewBakery, machine.PSO, 2},
	} {
		what := tc.name + "/" + tc.m.String()
		s := mustSubject(t, tc.name, tc.ctor, 2)
		opts := Opts{Reduction: Reduction{ReorderBound: tc.k}}
		seq, err := cloneExhaustive(bg(), s, tc.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		o1 := opts
		o1.Workers = 1
		p1, err := s.ExhaustiveParallel(bg(), tc.m, o1)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, what+" ws1", seq, p1)
		o2 := opts
		o2.Workers = 2
		p2, err := s.ExhaustiveParallel(bg(), tc.m, o2)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Violation != seq.Violation || p2.Complete != seq.Complete || p2.ReorderBound != tc.k {
			t.Fatalf("%s ws2: %+v vs %+v", what, p2, seq)
		}
		if p2.Complete && p2.States != seq.States {
			t.Fatalf("%s ws2: bounded state count drifted: %d vs %d", what, p2.States, seq.States)
		}
	}
}

// TestPORResumeCountsExact: a POR run killed at its first snapshot and
// resumed visits exactly the uninterrupted run's states, at one worker and
// at two, because the cycle proviso is static. A resume that checked a
// visited-set proviso instead would visit about twice as many (62,760 and
// 61,821 measured).
func TestPORResumeCountsExact(t *testing.T) {
	const porStates = 30066 // bakery n=3/PSO
	s, err := NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	red := Reduction{POR: true}
	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	_, err = s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 1, Reduction: red, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path},
	})
	var we *WorkerError
	if !errors.As(err, &we) || we.Level < 1 {
		t.Fatalf("want a kill at generation >= 1, got %v", err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		res, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: workers, Reduction: red})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if !res.Complete || res.Violation || !res.PORApplied || res.ResumedLevel < 1 {
			t.Fatalf("workers=%d: resumed POR run did not prove: %+v", workers, res)
		}
		if res.States != porStates {
			t.Fatalf("workers=%d: resumed run visited %d states, want %d", workers, res.States, porStates)
		}
	}
}

// TestPORFenceOnlyLoopNegativeControl: p0 spins in `while 1 { fence }`
// while p1 and p2 walk straight into the critical section. p0's fence
// step leads back to the node it leaves, so reducing to it is a cycle of
// reduced nodes that ignores p1 and p2 forever: POR with no cycle proviso
// at all visits 1 state and misses the violation. The static proviso never
// reduces at a fence of a program with a fence-only loop, so POR reports
// the violation at every worker count.
func TestPORFenceOnlyLoopNegativeControl(t *testing.T) {
	lay := machine.NewLayout()
	probes := lay.MustAlloc("cs.probe", 2, machine.Unowned)
	csIn, csOut := probes.At(0), probes.At(1)
	spin := lang.NewProgram("spin", lang.While(lang.I(1), lang.Fence()))
	walk := lang.NewProgram("walk",
		lang.Read("_csin", lang.I(csIn)),
		lang.Read("_csout", lang.I(csOut)),
		lang.Return(lang.I(0)),
	)
	if !spin.FenceOnlyLoop() || walk.FenceOnlyLoop() {
		t.Fatal("FenceOnlyLoop misclassifies the control's programs")
	}
	progs := []*lang.Program{spin, walk, walk}
	s := &Subject{
		Name: "fence-spin",
		Build: func(model machine.Model) (*machine.Config, error) {
			return machine.NewConfig(model, lay, progs)
		},
		CSExit: csOut,
		Layout: lay,
	}
	for _, m := range allModels {
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("fence-spin/%v w=%d", m, workers)
			res, err := s.ExhaustiveParallel(bg(), m, Opts{Workers: workers, Reduction: Reduction{POR: true}})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !res.Violation || !res.PORApplied {
				t.Fatalf("%s: POR missed the violation: %+v", what, res)
			}
			requireViolationReplays(t, what, s, m, res.Witness)
		}
	}
}

// TestReductionCheckpointCertification: snapshots certify the reduction
// modes. A reduced snapshot resumes only under the identical modes;
// flipping POR or the reorder bound in either direction is
// ErrCheckpointDrift, and the matching resume completes with the clean
// bounded/reduced verdict.
func TestReductionCheckpointCertification(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	red := Reduction{ReorderBound: 2, POR: true}
	clean, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{Workers: 2, Reduction: red})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Complete || clean.Violation {
		t.Fatalf("clean reduced run: %+v", clean)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2, Reduction: red, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: path, EveryStates: 16},
	}); err == nil {
		t.Fatal("expected chaos kill")
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.ReorderBound != 2 || !ck.POR {
		t.Fatalf("reduction modes not certified: bound=%d por=%v", ck.ReorderBound, ck.POR)
	}

	// Any flip of either mode at resume time fails closed.
	for _, bad := range []Reduction{
		{},                            // both dropped
		{ReorderBound: 2},             // POR dropped
		{POR: true},                   // bound dropped
		{ReorderBound: 1, POR: true},  // bound changed
		{ReorderBound: 2, POR: false}, // POR dropped, bound kept
	} {
		if _, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 2, Reduction: bad}); !errors.Is(err, ErrCheckpointDrift) {
			t.Fatalf("reduction flip %+v not rejected: %v", bad, err)
		}
	}
	resumed, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, ck, Opts{Workers: 2, Reduction: red})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Violation != clean.Violation || !resumed.Complete ||
		resumed.ReorderBound != 2 || !resumed.PORApplied {
		t.Fatalf("reduced resume diverged: %+v vs %+v", resumed, clean)
	}

	// The reverse flip: an unreduced snapshot must not resume reduced.
	plainPath := filepath.Join(t.TempDir(), "plain.json")
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, Opts{
		Workers: 2, WorkerFault: kill,
		Checkpoint: &CheckpointPolicy{Path: plainPath, EveryStates: 16},
	}); err == nil {
		t.Fatal("expected chaos kill")
	}
	plain, err := ReadCheckpoint(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ReorderBound != 0 || plain.POR {
		t.Fatalf("plain snapshot certified as reduced: %+v", plain)
	}
	if _, err := s.ResumeExhaustiveParallel(bg(), machine.PSO, plain, Opts{Workers: 2, Reduction: red}); !errors.Is(err, ErrCheckpointDrift) {
		t.Fatalf("reduced resume of plain snapshot not rejected: %v", err)
	}
}

// TestReductionRejectedOutsideMutex: FCFS checking (the precedence monitor
// is outside the independence relation) and the liveness analysis (it
// inspects graph structure the reductions do not preserve) must refuse
// reduction flags loudly instead of silently ignoring them.
func TestReductionRejectedOutsideMutex(t *testing.T) {
	red := Opts{Reduction: Reduction{POR: true}}
	bndOnly := Opts{Reduction: Reduction{ReorderBound: 1}}

	f, err := NewFCFSSubject("peterson", locks.NewPeterson, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Opts{red, bndOnly} {
		if _, err := f.Exhaustive(bg(), machine.PSO, o); err == nil || !strings.Contains(err.Error(), "reduction") {
			t.Fatalf("exhaustive FCFS accepted reduction %+v: %v", o.Reduction, err)
		}
		if _, err := f.Random(bg(), machine.PSO, newTestRng(1), 2, 50, 0.5, o); err == nil || !strings.Contains(err.Error(), "reduction") {
			t.Fatalf("random FCFS accepted reduction %+v: %v", o.Reduction, err)
		}
	}

	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	for _, o := range []Opts{red, bndOnly} {
		if _, err := s.CheckProgress(bg(), machine.PSO, o); err == nil || !strings.Contains(err.Error(), "reduction") {
			t.Fatalf("liveness accepted reduction %+v: %v", o.Reduction, err)
		}
	}
}
