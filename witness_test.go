package tradingfences

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckMutexWitnessPipeline is the end-to-end acceptance path: check an
// under-fenced lock with a crash-fault plan, obtain a violation with a
// replayable artifact, serialize it, replay it bit-for-bit, minimize it,
// and replay the minimized artifact bit-for-bit again.
func TestCheckMutexWitnessPipeline(t *testing.T) {
	spec := LockSpec{Kind: PetersonTSO}
	v, err := CheckMutexCtx(context.Background(), spec, 2, 1, PSO, CheckOptions{
		Faults: &FaultPlan{MaxCrashes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated {
		t.Fatal("peterson-tso must violate mutual exclusion under PSO")
	}
	if v.Artifact == nil {
		t.Fatal("violation verdict carries no witness artifact")
	}
	if v.Mode != ModeExhaustive {
		t.Fatalf("mode = %q, want %q", v.Mode, ModeExhaustive)
	}

	// Serialize and re-load the artifact: the round trip must preserve it.
	data, err := EncodeWitness(v.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeWitness(data)
	if err != nil {
		t.Fatal(err)
	}

	// Replay reproduces the recorded run bit for bit.
	trace, err := ReplayWitness(w)
	if err != nil {
		t.Fatal(err)
	}
	if trace == "" {
		t.Fatal("empty replay trace")
	}

	// ddmin keeps the artifact replayable with fresh fingerprints.
	mw, err := MinimizeWitness(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWitness(mw); err != nil {
		t.Fatalf("minimized witness does not replay: %v", err)
	}

	// Tampering with the schedule must be caught by the trace fingerprint
	// (or by the replay showing no violation).
	tampered := *w
	tampered.Schedule = strings.Replace(w.Schedule, "p0", "p1", 1)
	if _, err := ReplayWitness(&tampered); err == nil {
		t.Fatal("tampered witness replayed without complaint")
	}
}

// TestCheckMutexDegradedVerdict is the facade half of the no-silent-
// truncation guarantee: a tripped state budget yields Mode == ModeDegraded
// with randomized coverage — not an "inconclusive" verdict that looks like
// a clean non-violation.
func TestCheckMutexDegradedVerdict(t *testing.T) {
	v, err := CheckMutexCtx(context.Background(), LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded {
		t.Fatalf("mode = %q, want %q", v.Mode, ModeDegraded)
	}
	if v.Proved {
		t.Fatal("degraded verdict claims a proof")
	}
	if v.Coverage.ExhaustiveStates == 0 {
		t.Fatal("degraded verdict lost its exhaustive coverage")
	}
	if v.Coverage.RandomSteps == 0 {
		t.Fatal("degraded verdict ran no randomized fallback")
	}
}

// TestCheckMutexDegradedStillFindsViolation: the randomized fallback must
// find violations the truncated exhaustive phase missed.
func TestCheckMutexDegradedStillFindsViolation(t *testing.T) {
	v, err := CheckMutexCtx(context.Background(), LockSpec{Kind: PetersonTSO}, 2, 1, PSO, CheckOptions{
		Budget: Budget{MaxStates: 5},
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Mode != ModeDegraded {
		t.Fatalf("mode = %q, want %q", v.Mode, ModeDegraded)
	}
	if !v.Violated {
		t.Fatal("randomized fallback missed the PSO violation of peterson-tso")
	}
	if v.Artifact == nil {
		t.Fatal("degraded violation carries no artifact")
	}
	if _, err := ReplayWitness(v.Artifact); err != nil {
		t.Fatalf("degraded-mode witness does not replay: %v", err)
	}
}

func TestCheckMutexCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := CheckMutexCtx(ctx, LockSpec{Kind: Bakery}, 2, 1, PSO, CheckOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if v == nil {
		t.Fatal("cancellation lost the partial verdict")
	}
	if v.Proved {
		t.Fatal("cancelled run claims a proof")
	}
}

func TestEncodePermutationCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EncodePermutationCtx(ctx, LockSpec{Kind: Bakery}, Count, IdentityPerm(4), Budget{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestTradeoffSweepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TradeoffSweepCtx(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCheckLivenessCtxBudgetTrip(t *testing.T) {
	v, err := CheckLivenessCtx(context.Background(), LockSpec{Kind: Bakery}, 2, 1, PSO,
		CheckOptions{Budget: Budget{MaxStates: 10}})
	if !errors.Is(err, ErrBudgetExceeded) || !IsLimit(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	// The trip leaves an inconclusive verdict, not a proof.
	if v == nil || v.Complete || v.DeadlockFree {
		t.Fatalf("partial liveness verdict wrong: %+v", v)
	}
}

func TestParseLockSpecAndModel(t *testing.T) {
	for _, name := range []string{"bakery", "bakery-tso", "peterson", "peterson-tso", "peterson-nofence", "tournament", "filter"} {
		spec, err := ParseLockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.String() != name {
			t.Fatalf("ParseLockSpec(%q).String() = %q", name, spec)
		}
	}
	gt, err := ParseLockSpec("gt3")
	if err != nil || gt.Kind != GT || gt.F != 3 {
		t.Fatalf("ParseLockSpec(gt3) = %v, %v", gt, err)
	}
	for _, bad := range []string{"", "gt", "gt0", "gtx", "mutex9000"} {
		if _, err := ParseLockSpec(bad); err == nil {
			t.Fatalf("ParseLockSpec(%q) accepted", bad)
		}
	}
	for _, name := range []string{"SC", "tso", "Pso"} {
		if _, err := ParseMemoryModel(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseMemoryModel("RMO"); err == nil {
		t.Fatal("ParseMemoryModel(RMO) accepted")
	}
}

// TestGoldenWitnessReplays replays the committed golden artifact — the
// canonical peterson-tso-under-PSO violation — certifying that the machine,
// the checker instrumentation and the trace fingerprint are all stable
// across changes. Regenerate with: go test -run TestGoldenWitnessReplays
// -update-golden (see below) after an intentional machine change.
func TestGoldenWitnessReplays(t *testing.T) {
	path := filepath.Join("testdata", "peterson-tso_pso.witness.json")
	if os.Getenv("UPDATE_GOLDEN_WITNESS") != "" {
		v, err := CheckMutexCtx(context.Background(), LockSpec{Kind: PetersonTSO}, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 3_000_000}})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Violated || v.Artifact == nil {
			t.Fatal("no violation to record")
		}
		data, err := EncodeWitness(v.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden witness missing (regenerate with UPDATE_GOLDEN_WITNESS=1): %v", err)
	}
	w, err := DecodeWitness(data)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := ReplayWitness(w)
	if err != nil {
		t.Fatalf("golden witness no longer replays bit-for-bit: %v", err)
	}
	if !strings.Contains(trace, "read") {
		t.Fatalf("golden trace looks wrong:\n%s", trace)
	}
}

// TestGoldenRMEWitnessReplays replays the committed recoverable-mutex
// violation: rtas-unsafe (the negative control whose recovery section
// clears the lock word unconditionally) under SC with a one-crash budget.
// The golden schedule must contain a crash element — the violation only
// exists through a recovery re-entry — and must survive the full pipeline:
// decode, bit-identical re-encode, certified replay, minimize, and replay
// of the minimized artifact. Regenerate with UPDATE_GOLDEN_WITNESS=1 after
// an intentional machine or recovery-semantics change.
func TestGoldenRMEWitnessReplays(t *testing.T) {
	path := filepath.Join("testdata", "rme-rtas-unsafe_sc.witness.json")
	if os.Getenv("UPDATE_GOLDEN_WITNESS") != "" {
		v, err := CheckRMECtx(context.Background(), "rtas-unsafe", 2, 1, SC, CheckOptions{Budget: Budget{MaxStates: 3_000_000}, Faults: &FaultPlan{MaxCrashes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Violated || v.Artifact == nil {
			t.Fatal("rtas-unsafe did not violate under a one-crash budget")
		}
		data, err := EncodeWitness(v.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden rme witness missing (regenerate with UPDATE_GOLDEN_WITNESS=1): %v", err)
	}
	w, err := DecodeWitness(data)
	if err != nil {
		t.Fatal(err)
	}
	if w.Lock != "rme:rtas-unsafe" {
		t.Fatalf("golden rme witness records lock %q", w.Lock)
	}
	if !strings.Contains(w.Schedule, "!") {
		t.Fatalf("golden rme schedule has no crash element: %s", w.Schedule)
	}
	if re, err := EncodeWitness(w); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("golden rme witness does not re-encode bit-identically (err %v)", err)
	}
	if _, err := ReplayWitness(w); err != nil {
		t.Fatalf("golden rme witness no longer replays bit-for-bit: %v", err)
	}
	mw, err := MinimizeWitness(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mw.Schedule, "!") {
		t.Fatalf("minimization dropped the crash the violation needs: %s", mw.Schedule)
	}
	if _, err := ReplayWitness(mw); err != nil {
		t.Fatalf("minimized rme witness does not replay: %v", err)
	}
	if me, err := EncodeWitness(mw); err != nil {
		t.Fatal(err)
	} else if md, err := DecodeWitness(me); err != nil {
		t.Fatal(err)
	} else if me2, err := EncodeWitness(md); err != nil || !bytes.Equal(me, me2) {
		t.Fatalf("minimized rme witness does not round-trip bit-identically (err %v)", err)
	}
}

// TestGoldenSynthWitnessReplays replays the committed refutation artifact
// of the zero-fence Peterson placement under PSO, produced by the fence
// synthesizer — certifying that synth placement names, the site walker's
// numbering and the witness pipeline stay stable. Regenerate with
// UPDATE_GOLDEN_WITNESS=1 after an intentional machine or walker change.
func TestGoldenSynthWitnessReplays(t *testing.T) {
	path := filepath.Join("testdata", "synth-peterson-none_pso.witness.json")
	if os.Getenv("UPDATE_GOLDEN_WITNESS") != "" {
		res, err := SynthesizeFences(context.Background(), LockSpec{Kind: Peterson}, 2, PSO,
			SynthOptions{Oracle: OracleExhaustive})
		if err != nil {
			t.Fatal(err)
		}
		var artifact *Witness
		for _, ref := range res.Refuted {
			if len(ref.Sites) == 0 {
				artifact = ref.Artifact
				break
			}
		}
		if artifact == nil {
			t.Fatal("synthesis did not refute the zero-fence placement")
		}
		data, err := EncodeWitness(artifact)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden synth witness missing (regenerate with UPDATE_GOLDEN_WITNESS=1): %v", err)
	}
	w, err := DecodeWitness(data)
	if err != nil {
		t.Fatal(err)
	}
	if w.Lock != "synth:peterson:none" {
		t.Fatalf("golden synth witness records lock %q", w.Lock)
	}
	if _, err := ReplayWitness(w); err != nil {
		t.Fatalf("golden synth witness no longer replays bit-for-bit: %v", err)
	}
}
