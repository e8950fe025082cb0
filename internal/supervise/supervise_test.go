package supervise

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

func bg() context.Context { return context.Background() }

func mustSubject(t *testing.T, name string, ctor locks.Constructor, n int) *check.Subject {
	t.Helper()
	s, err := check.NewMutexSubject(name, ctor, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func requireSameResult(t *testing.T, what string, a, b check.Result) {
	t.Helper()
	if a.Violation != b.Violation || a.Complete != b.Complete {
		t.Fatalf("%s: verdict mismatch: (viol=%v complete=%v) vs (viol=%v complete=%v)",
			what, a.Violation, a.Complete, b.Violation, b.Complete)
	}
	if a.States != b.States {
		t.Fatalf("%s: states mismatch: %d vs %d", what, a.States, b.States)
	}
	if a.Witness.String() != b.Witness.String() {
		t.Fatalf("%s: witness mismatch: %q vs %q", what, a.Witness, b.Witness)
	}
}

// requireSameVerdict is the multi-worker comparison: verdicts must agree
// exactly and complete runs must cover the same state count, but which
// violation witness is found first is scheduling-dependent at >1 workers —
// so a witness is only required to replay to a real co-residency, not to
// match schedule-for-schedule.
func requireSameVerdict(t *testing.T, what string, s *check.Subject, m machine.Model, a, b check.Result) {
	t.Helper()
	if a.Violation != b.Violation || a.Complete != b.Complete {
		t.Fatalf("%s: verdict mismatch: (viol=%v complete=%v) vs (viol=%v complete=%v)",
			what, a.Violation, a.Complete, b.Violation, b.Complete)
	}
	if b.Complete && a.States != b.States {
		t.Fatalf("%s: complete-run states mismatch: %d vs %d", what, a.States, b.States)
	}
	if a.Violation {
		_, cfg, err := s.Replay(m, a.Witness, nil)
		if err != nil {
			t.Fatalf("%s: witness does not replay: %v", what, err)
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
			t.Fatalf("%s: witness replays to %d processes in the critical section", what, in)
		}
	}
}

// A clean supervised run is exactly one attempt and reproduces the direct
// parallel explorer bit for bit, for both a proof and a violation.
func TestSupervisedCleanMatchesDirect(t *testing.T) {
	cases := []struct {
		name string
		ctor locks.Constructor
	}{
		{"bakery", locks.NewBakery},
		{"bakery-tso", locks.NewBakeryTSO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSubject(t, tc.name, tc.ctor, 2)
			direct, err := s.ExhaustiveParallel(bg(), machine.PSO, check.Opts{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			out, err := CheckMutex(bg(), s, machine.PSO, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if out.Mode != ModeExhaustive {
				t.Fatalf("mode = %q, want exhaustive", out.Mode)
			}
			if len(out.Attempts) != 1 {
				t.Fatalf("attempts = %d, want 1", len(out.Attempts))
			}
			if out.Attempts[0].Err != "" || out.Attempts[0].CheckpointRejected != "" {
				t.Fatalf("clean attempt reported trouble: %+v", out.Attempts[0])
			}
			requireSameVerdict(t, tc.name, s, machine.PSO, out.Result, direct)
		})
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name          string
		err           error
		checkpointing bool
		want          bool
	}{
		{"worker kill", &check.WorkerError{Level: 3, Worker: 1, Err: errors.New("chaos")}, false, true},
		{"worker cancelled", &check.WorkerError{Err: context.Canceled}, true, false},
		{"states trip", &run.BudgetError{Resource: "states", Limit: 10, Used: 11}, false, true},
		{"memory trip", &run.BudgetError{Resource: "memory", Limit: 10, Used: 11}, false, true},
		{"wall trip, checkpointing", &run.BudgetError{Resource: "wall"}, true, true},
		{"wall trip, no checkpoint", &run.BudgetError{Resource: "wall"}, false, false},
		{"steps trip", &run.BudgetError{Resource: "steps", Limit: 10, Used: 11}, false, false},
		{"plain error", errors.New("machine: stuck"), true, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err, tc.checkpointing); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestGrowBudget(t *testing.T) {
	b := run.Budget{MaxSteps: 100, MaxStates: 50, MaxWall: time.Second}
	g := growBudget(b, 2)
	if g.MaxSteps != 200 || g.MaxStates != 100 || g.MaxWall != 2*time.Second {
		t.Fatalf("grown budget = %+v", g)
	}
	if g.MaxMemEstimate != 0 {
		t.Fatal("unlimited resource became bounded")
	}
}

// Exhausting the ladder on a proof subject must end in a degraded
// randomized verdict that (correctly) finds nothing, with the attempt
// reports showing the escalation: budgets growing, the worker pool kept,
// exponential backoff between attempts.
func TestLadderExhaustionDegrades(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	var sleeps []time.Duration
	out, err := CheckMutex(bg(), s, machine.PSO, Options{
		Workers:     4,
		Budget:      run.Budget{MaxStates: 40},
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeDegraded {
		t.Fatalf("mode = %q, want degraded", out.Mode)
	}
	if len(out.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(out.Attempts))
	}
	for i, a := range out.Attempts {
		if a.Err == "" {
			t.Fatalf("attempt %d did not trip: %+v", i, a)
		}
	}
	// Budget grows every rung; the pool stays as configured, since a
	// smaller one cannot make a per-unit budget pass.
	if out.Attempts[1].Budget.MaxStates <= out.Attempts[0].Budget.MaxStates ||
		out.Attempts[2].Budget.MaxStates <= out.Attempts[1].Budget.MaxStates {
		t.Fatalf("budget did not escalate: %+v", out.Attempts)
	}
	for i, a := range out.Attempts {
		if a.Workers != 4 {
			t.Fatalf("attempt %d ran %d workers, want the configured 4: %+v", i, a.Workers, out.Attempts)
		}
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("backoffs = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("backoffs = %v, want %v", sleeps, want)
		}
	}
	if out.Fallback.Violation {
		t.Fatal("degraded fallback refuted a correct lock")
	}
}

// The degraded fallback still catches real violations: a fenceless
// Peterson under TSO is refuted by the randomized search even though every
// exhaustive attempt tripped its (tiny) budget first.
func TestDegradedFallbackRefutes(t *testing.T) {
	s := mustSubject(t, "peterson-nofence", locks.NewPetersonNoFence, 2)
	out, err := CheckMutex(bg(), s, machine.TSO, Options{
		Workers:     2,
		Budget:      run.Budget{MaxStates: 3},
		MaxAttempts: 2,
		BackoffBase: time.Microsecond,
		Sleep:       func(time.Duration) {},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeDegraded {
		t.Fatalf("mode = %q, want degraded", out.Mode)
	}
	if !out.Fallback.Violation {
		t.Fatal("randomized fallback missed the TSO violation")
	}
	if _, _, err := s.Replay(machine.TSO, out.Fallback.Witness, nil); err != nil {
		t.Fatalf("fallback witness does not replay: %v", err)
	}
}

// Cancellation is never retried: the supervisor returns the context error
// after a single attempt instead of burning the ladder.
func TestCancellationNotRetried(t *testing.T) {
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	ctx, cancel := context.WithCancel(bg())
	cancel()
	out, err := CheckMutex(ctx, s, machine.PSO, Options{Workers: 2, MaxAttempts: 5})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out.Attempts) != 1 {
		t.Fatalf("cancelled run retried: %d attempts", len(out.Attempts))
	}
}

// With Options.Resume, a checkpoint left behind by an unrelated subject is
// rejected at resume (identity drift) and the supervisor restarts fresh on
// the same attempt, still reaching the right verdict.
func TestForeignCheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	// Produce a valid checkpoint for bakery-tso by killing a run mid-way
	// (one-state cadence: the first snapshot generation arrives before the
	// violation can, so the gen-keyed kill is deterministic).
	donor := mustSubject(t, "bakery-tso", locks.NewBakeryTSO, 2)
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	if _, err := donor.ExhaustiveParallel(bg(), machine.PSO, check.Opts{
		Workers: 2, WorkerFault: kill,
		Checkpoint: &check.CheckpointPolicy{Path: path, EveryStates: 1},
	}); err == nil {
		t.Fatal("donor run was supposed to be killed")
	}

	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	clean, err := s.ExhaustiveParallel(bg(), machine.PSO, check.Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := CheckMutex(bg(), s, machine.PSO, Options{
		Workers:        2,
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rej := out.Attempts[0].CheckpointRejected; rej == "" {
		t.Fatal("foreign checkpoint was not rejected")
	} else if !strings.Contains(rej, check.ErrCheckpointDrift.Error()) {
		t.Fatalf("rejected for %q, want identity drift", rej)
	}
	if out.Attempts[0].ResumedLevel != 0 || out.Attempts[0].VisitedReused {
		t.Fatalf("rejected checkpoint still resumed: %+v", out.Attempts[0])
	}
	requireSameResult(t, "after drift rejection", out.Result, clean)
}

// Without Options.Resume the supervised run owns the checkpoint path: a
// pre-existing snapshot — even one that would certify — is cleared before
// the first attempt rather than silently continued, and the snapshot is
// removed again once the run reaches a terminal verdict.
func TestStaleCheckpointNotResumedByDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s := mustSubject(t, "bakery", locks.NewBakery, 2)
	// Leave a certifiable snapshot of this very subject behind.
	kill := func(gen, worker int) error {
		if gen >= 1 {
			return errors.New("chaos")
		}
		return nil
	}
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, check.Opts{
		Workers: 2, WorkerFault: kill,
		Checkpoint: &check.CheckpointPolicy{Path: path, EveryStates: 1},
	}); err == nil {
		t.Fatal("donor run was supposed to be killed")
	}

	clean, err := s.ExhaustiveParallel(bg(), machine.PSO, check.Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := CheckMutex(bg(), s, machine.PSO, Options{
		Workers:        2,
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := out.Attempts[0]
	if a.ResumedLevel != 0 || a.VisitedReused || a.CheckpointRejected != "" {
		t.Fatalf("stale snapshot leaked into the fresh run: %+v", a)
	}
	// The fresh run must not double-count the donor's meter usage.
	requireSameResult(t, "fresh despite stale snapshot", out.Result, clean)
	// Terminal verdict: the snapshot is gone, so a later run at the same
	// path cannot pick it up either.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived a terminal verdict: stat err = %v", err)
	}

	// With Resume the same pre-existing snapshot is honored.
	if _, err := s.ExhaustiveParallel(bg(), machine.PSO, check.Opts{
		Workers: 2, WorkerFault: kill,
		Checkpoint: &check.CheckpointPolicy{Path: path, EveryStates: 1},
	}); err == nil {
		t.Fatal("second donor run was supposed to be killed")
	}
	out, err = CheckMutex(bg(), s, machine.PSO, Options{
		Workers:        2,
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts[0].ResumedLevel == 0 || !out.Attempts[0].VisitedReused {
		t.Fatalf("Resume did not pick up the certified snapshot: %+v", out.Attempts[0])
	}
	requireSameResult(t, "explicit resume", out.Result, clean)
}
