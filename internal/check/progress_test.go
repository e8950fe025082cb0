package check

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

func progressOf(t *testing.T, name string, ctor locks.Constructor, n int, model machine.Model) *ProgressResult {
	t.Helper()
	s, err := NewMutexSubject(name, ctor, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), model, statesOpt(3_000_000))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The correct locks satisfy both liveness properties under every model.
func TestProgressCorrectLocks(t *testing.T) {
	cases := []struct {
		name string
		ctor locks.Constructor
	}{
		{"bakery", locks.NewBakery},
		{"peterson", locks.NewPeterson},
		{"tournament", locks.NewTournament},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []machine.Model{machine.SC, machine.TSO, machine.PSO} {
				res := progressOf(t, tc.name, tc.ctor, 2, m)
				if !res.Complete {
					t.Fatalf("%v: state space not exhausted (%d states)", m, res.States)
				}
				if !res.DeadlockFree {
					t.Errorf("%v: deadlock/livelock found (witness %d elems): %v", m, len(res.StuckWitness), res)
				}
				if !res.WeakObstructionFree {
					t.Errorf("%v: weak obstruction-freedom refuted (witness %d elems)", m, len(res.WOFWitness))
				}
			}
		})
	}
}

// A deliberately deadlocking "lock": both processes raise their flag and
// wait for the other's flag to drop — a classic deadly embrace. The
// progress checker must find the stuck component (the mutual-wait state
// cannot reach completion).
func TestProgressDetectsDeadlock(t *testing.T) {
	deadlock := func(lay *machine.Layout, name string, n int) (*locks.Algorithm, error) {
		return locks.NewDeadlockDemo(lay, name, n)
	}
	s, err := NewMutexSubject("deadlock", deadlock, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("state space not exhausted: %d states", res.States)
	}
	if res.DeadlockFree {
		t.Fatal("deadly-embrace lock reported deadlock-free")
	}
	if res.StuckStates == 0 || res.StuckWitness == nil {
		t.Fatalf("no stuck witness: %v", res)
	}
	// Weak obstruction-freedom still holds for the deadly embrace (a
	// process running alone never sees the other's flag raised): deadlock
	// freedom implies WOF, not conversely — this asymmetry is exactly the
	// paper's remark in Section 2.
	if !res.WeakObstructionFree {
		t.Fatalf("deadly-embrace is WOF (solo runs never block); witness %d elems", len(res.WOFWitness))
	}
	// Replaying the stuck witness must produce a state where indeed
	// nobody can finish: drive it round-robin afterwards and observe no
	// completion.
	c, err := s.Build(machine.PSO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(res.StuckWitness); err != nil {
		t.Fatal(err)
	}
	if err := machine.RunRoundRobin(c, 10_000); err != machine.ErrStepLimit {
		t.Fatalf("expected the stuck state to spin forever, got %v", err)
	}
}

// The rendezvous pseudo-lock (wait until the OTHER flag rises) violates
// weak obstruction-freedom outright: a process running alone spins forever.
func TestProgressDetectsWOFViolation(t *testing.T) {
	rendezvous := func(lay *machine.Layout, name string, n int) (*locks.Algorithm, error) {
		return locks.NewRendezvousDemo(lay, name, n)
	}
	s, err := NewMutexSubject("rendezvous", rendezvous, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.WeakObstructionFree {
		t.Fatal("rendezvous lock reported weakly obstruction-free")
	}
	// Deadlock freedom fails too (WOF is implied by it), since a solo
	// prefix that parks one process spinning is reachable... in fact the
	// pair CAN rendezvous, so completion is reachable from every state
	// where both still run; but the all-finished state is unreachable
	// from states where one process already returned and the other has
	// not passed the rendezvous. Either way the checker must not report
	// full liveness.
	if res.DeadlockFree && res.Complete {
		// A complete graph claiming deadlock freedom would contradict
		// the WOF violation only if some stuck state existed; accept
		// either verdict but require the WOF refutation above.
		t.Log("note: rendezvous pair completes under fair schedules; WOF refutation is the essential result")
	}
}

// An incomplete exploration must not claim deadlock freedom, and the
// truncation must surface as a structured budget error, not silently.
func TestProgressTruncatedIsInconclusive(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(10))
	if !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("10-state budget should trip: err = %v", err)
	}
	var be *run.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states BudgetError, got %v", err)
	}
	if res == nil {
		t.Fatal("budget trip should still return the partial result")
	}
	if res.Complete {
		t.Fatal("10-state budget cannot exhaust the bakery state space")
	}
	if res.DeadlockFree {
		t.Fatal("truncated exploration must not claim deadlock freedom")
	}
}

// TestProgressPinnedGraph pins the liveness graph of every lock in the
// suite under every model, and checks that each witness replays into a
// state that really refutes its property.
func TestProgressPinnedGraph(t *testing.T) {
	cases := []struct {
		name         string
		ctor         locks.Constructor
		states       [3]int // SC, TSO, PSO
		stuck        int
		deadlockFree bool
		wof          bool
	}{
		{"peterson", locks.NewPeterson, [3]int{511, 633, 633}, 0, true, true},
		{"bakery", locks.NewBakery, [3]int{682, 936, 936}, 0, true, true},
		{"tournament", locks.NewTournament, [3]int{511, 633, 633}, 0, true, true},
		{"deadlock-demo", locks.NewDeadlockDemo, [3]int{110, 149, 149}, 9, false, true},
		{"rendezvous-demo", locks.NewRendezvousDemo, [3]int{106, 136, 136}, 24, false, false},
	}
	for _, tc := range cases {
		for i, m := range allModels {
			what := tc.name + "/" + m.String()
			s := mustSubject(t, tc.name, tc.ctor, 2)
			res, err := s.CheckProgress(bg(), m, statesOpt(3_000_000))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.States != tc.states[i] || res.StuckStates != tc.stuck ||
				res.DeadlockFree != tc.deadlockFree || res.WeakObstructionFree != tc.wof {
				t.Fatalf("%s: %v, want states=%d stuck=%d deadlockFree=%v weakObstructionFree=%v",
					what, res, tc.states[i], tc.stuck, tc.deadlockFree, tc.wof)
			}
			if (res.StuckWitness != nil) != (tc.stuck > 0) || (res.WOFWitness != nil) != !tc.wof {
				t.Fatalf("%s: witnesses do not match the verdicts: %v", what, res)
			}
			if res.StuckWitness != nil {
				c := replayed(t, s, m, res.StuckWitness)
				if err := machine.RunRoundRobin(c, 10_000); !errors.Is(err, machine.ErrStepLimit) {
					t.Fatalf("%s: stuck witness replays to a state round-robin completes from (%v)", what, err)
				}
			}
			if res.WOFWitness != nil {
				requireWOFRefuted(t, what, replayed(t, s, m, res.WOFWitness))
			}
		}
	}
}

// replayed executes a witness schedule on a fresh configuration.
func replayed(t *testing.T, s *Subject, m machine.Model, w machine.Schedule) *machine.Config {
	t.Helper()
	c, err := s.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(w); err != nil {
		t.Fatal(err)
	}
	return c
}

// requireWOFRefuted demands that c meets weak obstruction-freedom's
// precondition (at most one process is neither initial nor final) and that
// a process it obliges to finish solo does not.
func requireWOFRefuted(t *testing.T, what string, c *machine.Config) {
	t.Helper()
	var mid, idle []int
	for p := 0; p < c.N(); p++ {
		switch {
		case c.Halted(p):
		case c.Stats().Steps[p] == 0:
			idle = append(idle, p)
		default:
			mid = append(mid, p)
		}
	}
	if len(mid) > 1 {
		t.Fatalf("%s: WOF witness leaves processes %v mid-execution", what, mid)
	}
	obliged := mid
	if len(mid) == 0 {
		obliged = idle
	}
	for _, p := range obliged {
		halted, err := c.Clone().RunSolo(p, machine.DefaultSoloLimit(c.N()))
		if err != nil {
			t.Fatal(err)
		}
		if !halted {
			return
		}
	}
	t.Fatalf("%s: every obliged process %v finishes solo from the WOF witness", what, obliged)
}

// The liveness graph covers exactly the state space the mutual-exclusion
// proof covers.
func TestProgressVisitsExhaustiveStates(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 3)
	proof, err := s.Exhaustive(bg(), machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !proof.Complete || !res.Complete || proof.States != 77_594 || res.States != proof.States {
		t.Fatalf("liveness visited %d states, the proof %d (want 77,594)", res.States, proof.States)
	}
	if !res.DeadlockFree || !res.WeakObstructionFree {
		t.Fatalf("bakery n=3/PSO liveness: %v", res)
	}
}

// The liveness analysis fails closed on the options it cannot honour,
// naming each.
func TestProgressRejectsUnsupportedOptions(t *testing.T) {
	s := mustSubject(t, "peterson", locks.NewPeterson, 2)
	for _, tc := range []struct {
		opts Opts
		name string
	}{
		{Opts{Workers: 2}, "Workers"},
		{Opts{Checkpoint: &CheckpointPolicy{Path: filepath.Join(t.TempDir(), "ck.json")}}, "Checkpoint"},
	} {
		if _, err := s.CheckProgress(bg(), machine.PSO, tc.opts); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("liveness accepted %s: %v", tc.name, err)
		}
	}
	if _, err := s.CheckProgress(bg(), machine.PSO, Opts{Workers: 1}); err != nil {
		t.Fatalf("one explicit worker rejected: %v", err)
	}
}

func TestProgressString(t *testing.T) {
	res := &ProgressResult{States: 5, Complete: true, DeadlockFree: true, WeakObstructionFree: true}
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
}
