package tradingfences

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// A four-worker check must reproduce the default one-worker verdicts:
// identical proofs (including state counts) and identical violation
// verdicts with replayable artifacts.
func TestCheckMutexWorkersFacade(t *testing.T) {
	ctx := context.Background()
	// Proof: state counts must match exactly (both explorers exhaust the
	// same reachable space).
	seq, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Proved || par.Violated {
		t.Fatalf("parallel bakery/PSO verdict: %+v", par)
	}
	if par.States != seq.States {
		t.Fatalf("four-worker proof explored %d states, one worker %d", par.States, seq.States)
	}

	// Violation: the four-worker witness may differ from the one-worker
	// one, but both must be violations with certified, replayable
	// artifacts.
	v, err := CheckMutexCtx(ctx, LockSpec{Kind: BakeryTSO}, 2, 1, PSO, CheckOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated || v.Artifact == nil {
		t.Fatalf("parallel bakery-tso/PSO verdict: %+v", v)
	}
	if _, err := ReplayWitness(v.Artifact); err != nil {
		t.Fatalf("parallel witness does not replay: %v", err)
	}
}

// A checkpointed check that trips its state budget degrades (same
// contract as the unsnapshotted path), leaves its snapshot behind, and
// ResumeMutexCheckCtx finishes the exhaustive proof from that snapshot.
func TestCheckpointThenResumeFacade(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "ck.json")
	v, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{
		Budget:         Budget{MaxStates: 400},
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded || v.Proved {
		t.Fatalf("tripped check did not degrade: %+v", v)
	}

	resumed, err := ResumeMutexCheckCtx(ctx, path, CheckOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Proved || resumed.Violated {
		t.Fatalf("resumed verdict: %+v", resumed)
	}
	if resumed.Lock.Kind != Bakery || resumed.Model != PSO {
		t.Fatalf("resume rebuilt the wrong subject: %+v", resumed)
	}
}

// Resuming a snapshot against a drifted subject must fail closed: the
// file names the lock it belongs to, and a tampered name is caught by the
// identity hash.
func TestResumeRejectsTamperedSnapshot(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{
		Budget:         Budget{MaxStates: 400},
		CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeMutexCheckCtx(ctx, filepath.Join(t.TempDir(), "missing.json"), CheckOptions{}); err == nil {
		t.Fatal("resume from a missing file succeeded")
	}
}

// Resume takes its fault plan from the snapshot: a checkpointed run with a
// crash budget resumes under the same budget without the caller restating
// it, and a caller-supplied plan is rejected rather than overridden.
func TestResumeReconstructsCrashBudget(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "ck.json")
	v, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{
		Budget:         Budget{MaxStates: 400},
		CheckpointPath: path,
		Faults:         &FaultPlan{MaxCrashes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded {
		t.Fatalf("tripped check did not degrade: %+v", v)
	}
	if _, err := ResumeMutexCheckCtx(ctx, path, CheckOptions{
		Faults: &FaultPlan{MaxCrashes: 2},
	}); err == nil {
		t.Fatal("caller-supplied fault plan accepted at resume")
	}
	direct, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{
		Workers: 2, Faults: &FaultPlan{MaxCrashes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeMutexCheckCtx(ctx, path, CheckOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Proved != direct.Proved || resumed.Violated != direct.Violated {
		t.Fatalf("resumed verdict (proved=%v viol=%v) drifted from direct (proved=%v viol=%v)",
			resumed.Proved, resumed.Violated, direct.Proved, direct.Violated)
	}
}

// FCFS checking runs the engine at one worker without snapshots: the
// worker and checkpoint options are rejected, not silently ignored.
func TestCheckFCFSRejectsParallelOptions(t *testing.T) {
	ctx := context.Background()
	if _, err := CheckFCFSCtx(ctx, LockSpec{Kind: Bakery}, 2, PSO, CheckOptions{Workers: 2}); err == nil {
		t.Fatal("FCFS checking accepted Workers")
	}
	if _, err := CheckFCFSCtx(ctx, LockSpec{Kind: Bakery}, 2, PSO, CheckOptions{CheckpointPath: "ck.json"}); err == nil {
		t.Fatal("FCFS checking accepted CheckpointPath")
	}
}

// Liveness checking records its graph with one engine worker and no
// snapshots: every option it cannot honour is rejected by name.
func TestCheckLivenessRejectsUnsupportedOptions(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		opts CheckOptions
		name string
	}{
		{CheckOptions{Workers: 2}, "Workers"},
		{CheckOptions{CheckpointPath: "ck.json"}, "CheckpointPath"},
		{CheckOptions{CheckpointEvery: 64}, "CheckpointEvery"},
	} {
		if _, err := CheckLivenessCtx(ctx, LockSpec{Kind: Peterson}, 2, 1, PSO, tc.opts); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("liveness checking accepted %s: %v", tc.name, err)
		}
	}
}

// The supervised facade: a clean run is one attempt with the plain
// exhaustive verdict; the attempt reports expose the ladder.
func TestCheckMutexSupervisedFacade(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "ck.json")
	v, attempts, err := CheckMutexSupervisedCtx(ctx, LockSpec{Kind: BakeryTSO}, 2, 1, PSO, SuperviseOptions{
		CheckOptions: CheckOptions{Workers: 2, CheckpointPath: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated || v.Mode != ModeExhaustive {
		t.Fatalf("supervised bakery-tso/PSO verdict: %+v", v)
	}
	if len(attempts) != 1 || attempts[0].Err != "" {
		t.Fatalf("clean supervised run attempts: %+v", attempts)
	}
	if v.Artifact == nil {
		t.Fatal("supervised violation has no artifact")
	}
	if _, err := ReplayWitness(v.Artifact); err != nil {
		t.Fatalf("supervised witness does not replay: %v", err)
	}
	if !strings.Contains(v.WitnessSchedule, "p") {
		t.Fatalf("empty witness schedule: %+v", v)
	}
}

// FCFS checking degrades uniformly with the mutex checker: a tripped
// state budget continues with the seeded randomized hunt and reports
// Mode/Coverage instead of silently returning a partial verdict.
func TestCheckFCFSDegrades(t *testing.T) {
	ctx := context.Background()
	// GT_2's overtake is findable by random search even when the
	// exhaustive product-space walk trips immediately. The overtake is a
	// rare interleaving: size the fallback like the internal randomized
	// test does (50k runs of up to 600 steps, seed 5).
	v, err := CheckFCFSCtx(ctx, LockSpec{Kind: GT, F: 2}, 3, PSO, CheckOptions{
		Budget:           Budget{MaxStates: 200},
		Seed:             5,
		FallbackRuns:     50_000,
		FallbackMaxSteps: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded || v.Proved {
		t.Fatalf("tripped FCFS check did not degrade: %+v", v)
	}
	if v.Coverage.ExhaustiveStates == 0 || v.Coverage.RandomSteps == 0 {
		t.Fatalf("degraded FCFS verdict lost its coverage: %+v", v)
	}
	if !v.Violated {
		t.Fatalf("degraded FCFS hunt missed the GT_2 overtake: %+v", v)
	}

	// A correct lock under the same tiny budget: degraded, unproved,
	// no violation.
	v, err = CheckFCFSCtx(ctx, LockSpec{Kind: Bakery}, 2, PSO, CheckOptions{
		Budget: Budget{MaxStates: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded || v.Proved || v.Violated {
		t.Fatalf("bakery degraded FCFS verdict: %+v", v)
	}
}
