package tradingfences

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestNewSystemAndSequentialRun(t *testing.T) {
	sys, err := NewSystem(LockSpec{Kind: Bakery}, Count, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunSequential(PSO, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range rep.Returns {
		if v != int64(p) {
			t.Fatalf("process %d returned %d, want %d", p, v, p)
		}
	}
	if rep.MaxFences <= 0 || rep.MaxRMRs <= 0 {
		t.Fatalf("degenerate stats: %+v", rep)
	}
}

func TestRunConcurrentAllModels(t *testing.T) {
	for _, spec := range []LockSpec{
		{Kind: Bakery},
		{Kind: Tournament},
		{Kind: GT, F: 2},
	} {
		for _, m := range Models() {
			sys, err := NewSystem(spec, Count, 5)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.RunConcurrent(m)
			if err != nil {
				t.Fatalf("%v under %v: %v", spec, m, err)
			}
			seen := make([]bool, 5)
			for _, v := range rep.Returns {
				if v < 0 || v >= 5 || seen[v] {
					t.Fatalf("%v under %v: returns %v not a rank permutation", spec, m, rep.Returns)
				}
				seen[v] = true
			}
		}
	}
}

func TestRunRandomValid(t *testing.T) {
	sys, err := NewSystem(LockSpec{Kind: GT, F: 2}, FetchAndIncrement, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		rep, err := sys.RunRandom(PSO, seed, 0.3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen := make([]bool, 4)
		for _, v := range rep.Returns {
			if v < 0 || v >= 4 || seen[v] {
				t.Fatalf("seed %d: returns %v", seed, rep.Returns)
			}
			seen[v] = true
		}
	}
}

func TestMeasureLockBakeryFlatFences(t *testing.T) {
	var prev int64 = -1
	for _, n := range []int{4, 16, 64} {
		pt, err := MeasureLock(LockSpec{Kind: Bakery}, n)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && pt.Fences != prev {
			t.Fatalf("Bakery fences changed with n: %d at n=%d, was %d", pt.Fences, n, prev)
		}
		prev = pt.Fences
	}
	if prev != 4 {
		t.Fatalf("Bakery per-passage fences = %d, want 4 (3 acquire + 1 release)", prev)
	}
}

func TestTradeoffSweepShape(t *testing.T) {
	pts, err := TradeoffSweepCtx(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // f = 1..log2(64)
		t.Fatalf("sweep returned %d points, want 6", len(pts))
	}
	// RMRs must be non-increasing-ish in f and fences increasing.
	if !(pts[0].RMRs > pts[len(pts)-1].RMRs) {
		t.Fatalf("RMRs did not fall from f=1 (%d) to f=max (%d)", pts[0].RMRs, pts[len(pts)-1].RMRs)
	}
	if !(pts[0].Fences < pts[len(pts)-1].Fences) {
		t.Fatalf("fences did not rise from f=1 (%d) to f=max (%d)", pts[0].Fences, pts[len(pts)-1].Fences)
	}
	for _, pt := range pts {
		// Equation 2 tightness: measured RMRs within a constant factor of
		// f·n^(1/f).
		if pt.RMRBound <= 0 {
			t.Fatalf("missing RMR budget for %v", pt.Lock)
		}
		ratio := float64(pt.RMRs) / pt.RMRBound
		if ratio > 8 {
			t.Errorf("GT_%d at n=64: RMRs %d exceed 8×(f·n^(1/f)) = %f", pt.Lock.F, pt.RMRs, 8*pt.RMRBound)
		}
		// Equation 1 lower bound: normalized product bounded below.
		if pt.Normalized < 0.5 {
			t.Errorf("GT_%d at n=64: normalized tradeoff %f below 0.5 — lower bound violated?", pt.Lock.F, pt.Normalized)
		}
	}
}

func TestEncodePermutationRoundTrip(t *testing.T) {
	pi := []int{4, 1, 3, 0, 2}
	rep, err := EncodePermutationCtx(context.Background(), LockSpec{Kind: Bakery}, Count, pi, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fences <= 0 || rep.RMRs <= 0 || rep.Commands <= 0 || rep.BitLen <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	got, err := RecoverPermutationFromCode(LockSpec{Kind: Bakery}, Count, 5, rep.Code, rep.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if got[i] != pi[i] {
			t.Fatalf("recovered %v, want %v", got, pi)
		}
	}
	// Census uses only Table 1's vocabulary and the totals agree.
	c := rep.Census
	if c.Proceed+c.Commit+c.WaitHiddenCommit+c.WaitReadFinish+c.WaitLocalFinish != rep.Commands {
		t.Fatalf("census %+v does not sum to %d", c, rep.Commands)
	}
}

func TestEncodePermutationRejectsBadInput(t *testing.T) {
	if _, err := EncodePermutationCtx(context.Background(), LockSpec{Kind: Bakery}, Count, []int{0, 0, 1}, Budget{}); err == nil {
		t.Error("invalid permutation accepted")
	}
	if _, err := EncodePermutationCtx(context.Background(), LockSpec{Kind: GT}, Count, []int{0, 1}, Budget{}); err == nil {
		t.Error("GT without F accepted")
	}
}

func TestPermHelpers(t *testing.T) {
	if got := IdentityPerm(3); got[0] != 0 || got[2] != 2 {
		t.Errorf("IdentityPerm: %v", got)
	}
	if got := ReversePerm(3); got[0] != 2 || got[2] != 0 {
		t.Errorf("ReversePerm: %v", got)
	}
	p := RandomPerm(10, 7)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("RandomPerm invalid: %v", p)
		}
		seen[v] = true
	}
	if math.Abs(Log2Factorial(5)-math.Log2(120)) > 1e-9 {
		t.Error("Log2Factorial(5) wrong")
	}
}

func TestCheckMutexFacade(t *testing.T) {
	v, err := CheckMutexCtx(context.Background(), LockSpec{Kind: PetersonTSO}, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 2_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated || v.Witness == "" {
		t.Fatalf("expected PSO violation with witness, got %+v", v)
	}
	v, err = CheckMutexCtx(context.Background(), LockSpec{Kind: PetersonTSO}, 2, 1, TSO, CheckOptions{Budget: Budget{MaxStates: 2_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Violated || !v.Proved {
		t.Fatalf("expected TSO proof, got %+v", v)
	}
}

func TestCheckMutexRandomFacade(t *testing.T) {
	v, err := CheckMutexRandom(LockSpec{Kind: BakeryTSO}, 2, 1, PSO, 3, 20000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated {
		t.Fatal("random search failed to find the bakery-tso PSO violation")
	}
}

func TestSeparationMatrix(t *testing.T) {
	rows, err := SeparationMatrixCtx(context.Background(), CheckOptions{Budget: Budget{MaxStates: 3_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[LockKind]map[MemoryModel]bool{ // violated?
		PetersonNoFence: {SC: false, TSO: true, PSO: true},
		PetersonTSO:     {SC: false, TSO: false, PSO: true},
		Peterson:        {SC: false, TSO: false, PSO: false},
		BakeryNoFence:   {SC: false, TSO: true, PSO: true},
		BakeryTSO:       {SC: false, TSO: false, PSO: true},
		Bakery:          {SC: false, TSO: false, PSO: false},
		BakeryLiteral:   {SC: true, TSO: true, PSO: true},
	}
	for _, row := range rows {
		exp, ok := want[row.Lock.Kind]
		if !ok {
			t.Fatalf("unexpected row %v", row.Lock)
		}
		for m, wantViol := range exp {
			v := row.Verdicts[m]
			if v == nil {
				t.Fatalf("%v missing verdict for %v", row.Lock, m)
			}
			if v.Violated != wantViol {
				t.Errorf("%v under %v: violated=%v, want %v", row.Lock, m, v.Violated, wantViol)
			}
			if !wantViol && !v.Proved {
				t.Errorf("%v under %v: expected exhaustive proof", row.Lock, m)
			}
		}
	}
}

func TestCorrectUnder(t *testing.T) {
	if got := (LockSpec{Kind: BakeryLiteral}).CorrectUnder(); got != nil {
		t.Errorf("BakeryLiteral correct under %v, want none", got)
	}
	if got := (LockSpec{Kind: PetersonTSO}).CorrectUnder(); len(got) != 2 {
		t.Errorf("PetersonTSO correct under %v, want SC+TSO", got)
	}
	if got := (LockSpec{Kind: GT, F: 2}).CorrectUnder(); len(got) != 3 {
		t.Errorf("GT correct under %v, want all", got)
	}
}

func TestShapeGTFacade(t *testing.T) {
	sh := ShapeGT(256, 4)
	if sh.Branching != 4 || len(sh.NodesPerLevel) != 4 {
		t.Fatalf("ShapeGT(256,4) = %+v", sh)
	}
	if sh.NodesPerLevel[3] != 1 {
		t.Fatalf("root level should have 1 node: %+v", sh)
	}
}

func TestMeasureLockInAccountings(t *testing.T) {
	const n = 16
	for _, spec := range []LockSpec{{Kind: Bakery}, {Kind: Tournament}} {
		var combined, dsm, cc int64
		for _, acct := range RMRModels() {
			pt, err := MeasureLockIn(spec, n, acct)
			if err != nil {
				t.Fatal(err)
			}
			switch acct {
			case CombinedModel:
				combined = pt.RMRs
			case DSMModel:
				dsm = pt.RMRs
			case CCModel:
				cc = pt.RMRs
			}
		}
		// The combined model is the weakest counting.
		if combined > dsm || combined > cc {
			t.Errorf("%v: combined=%d dsm=%d cc=%d — combined must be smallest", spec, combined, dsm, cc)
		}
		if dsm <= 0 || cc <= 0 {
			t.Errorf("%v: degenerate counts dsm=%d cc=%d", spec, dsm, cc)
		}
	}
	// Bakery's scan is charged identically by all three models at the
	// first visit; its fence count is accounting-independent.
	pt1, err := MeasureLockIn(LockSpec{Kind: Bakery}, n, DSMModel)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := MeasureLockIn(LockSpec{Kind: Bakery}, n, CCModel)
	if err != nil {
		t.Fatal(err)
	}
	if pt1.Fences != pt2.Fences {
		t.Errorf("fences differ across accountings: %d vs %d", pt1.Fences, pt2.Fences)
	}
}

func TestCheckOrderingFacade(t *testing.T) {
	v, err := CheckOrdering(LockSpec{Kind: Bakery}, Count, 4, PSO, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Ordering() {
		t.Fatalf("bakery Count should be ordering: %v", v.Err)
	}
	if v.SequentialOrders != 24*4 {
		t.Errorf("sequential order count %d, want 96", v.SequentialOrders)
	}
	// A PSO-broken lock fails the concurrent half of the check.
	v, err = CheckOrdering(LockSpec{Kind: BakeryTSO}, Count, 2, PSO, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ordering() {
		t.Fatal("bakery-tso under PSO should fail the ordering check")
	}
	// Size guard.
	if _, err := CheckOrdering(LockSpec{Kind: Bakery}, Count, 12, PSO, 0, 0); err == nil {
		t.Error("n=12 exhaustive order check should be rejected")
	}
}

func TestSystemListingAndAnalysis(t *testing.T) {
	sys, err := NewSystem(LockSpec{Kind: Bakery}, Count, 4)
	if err != nil {
		t.Fatal(err)
	}
	listing := sys.Listing()
	for _, want := range []string{"program obj {", "fence()", "return", "write("} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	a := sys.Analyze()
	// Classic Bakery acquire has 3 writes + release 1 + Count's 1 = 5;
	// fences: 3 + 1 + CS fence + trailing = 6.
	if a.Writes != 5 {
		t.Errorf("static writes = %d, want 5", a.Writes)
	}
	if a.Fences != 6 {
		t.Errorf("static fences = %d, want 6", a.Fences)
	}
	if a.Returns != 1 || a.MaxLoopDepth < 1 || a.Locals == 0 {
		t.Errorf("analysis: %+v", a)
	}
	regs := sys.DescribeRegisters()
	for _, want := range []string{"lk.C[0]", "lk.T[3]", "obj.C", "segment: process 2", "segment: none"} {
		if !strings.Contains(regs, want) {
			t.Errorf("register map missing %q:\n%s", want, regs)
		}
	}
}

func TestExplainRMRs(t *testing.T) {
	br, err := ExplainRMRs(LockSpec{Kind: Bakery}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if br.TotalRMRs <= 0 || len(br.Rows) == 0 || br.Table == "" {
		t.Fatalf("degenerate breakdown: %+v", br)
	}
	// The scan arrays dominate and rows are sorted.
	if br.Rows[0].Array != "lk.C" && br.Rows[0].Array != "lk.T" {
		t.Errorf("top array %q, want lk.C or lk.T", br.Rows[0].Array)
	}
	var sum int64
	for i, r := range br.Rows {
		sum += r.RMRs()
		if i > 0 && br.Rows[i-1].RMRs() < r.RMRs() {
			t.Error("rows not sorted by RMRs")
		}
	}
	if sum != br.TotalRMRs {
		t.Errorf("row sum %d != total %d", sum, br.TotalRMRs)
	}
}

func TestTraceTimeline(t *testing.T) {
	out, err := TraceTimeline(LockSpec{Kind: Peterson}, 2, PSO, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p0", "p1", "fence", "lk.flag"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestFilterSuboptimalProduct(t *testing.T) {
	// The filter lock's fence bill makes its tradeoff product grow
	// linearly in n — the suboptimality the GT family avoids.
	pt16, err := MeasureLock(LockSpec{Kind: Filter}, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt64, err := MeasureLock(LockSpec{Kind: Filter}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pt16.Fences != 2*15+1 || pt64.Fences != 2*63+1 {
		t.Fatalf("filter fences: %d at n=16, %d at n=64", pt16.Fences, pt64.Fences)
	}
	// The normalized product grows with n (≈ 2n/log2 n), unlike the GT
	// family's Θ(1).
	if pt64.Normalized < 2*pt16.Normalized {
		t.Fatalf("filter product should grow superlogarithmically: %f at 16, %f at 64",
			pt16.Normalized, pt64.Normalized)
	}
	gt, err := MeasureLock(LockSpec{Kind: GT, F: 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pt64.Normalized < 3*gt.Normalized {
		t.Fatalf("filter (%f) should be far above GT_2 (%f) at n=64", pt64.Normalized, gt.Normalized)
	}
}

func TestMeasureLockRepeatedAmortization(t *testing.T) {
	// Bakery's scan re-reads the same (unchanged) registers each passage:
	// under combined accounting the warm-cache passages are dramatically
	// cheaper than the first.
	pt, err := MeasureLockRepeated(LockSpec{Kind: Bakery}, 32, 8, CombinedModel)
	if err != nil {
		t.Fatal(err)
	}
	if pt.AmortizedRMRs >= float64(pt.FirstRMRs) {
		t.Fatalf("no amortization: first=%d amortized=%f", pt.FirstRMRs, pt.AmortizedRMRs)
	}
	if pt.AmortizedRMRs > float64(pt.FirstRMRs)/2 {
		t.Fatalf("amortization too weak: first=%d amortized=%f", pt.FirstRMRs, pt.AmortizedRMRs)
	}
	// Under DSM accounting there is no cache, so no amortization.
	dsm, err := MeasureLockRepeated(LockSpec{Kind: Bakery}, 32, 8, DSMModel)
	if err != nil {
		t.Fatal(err)
	}
	if dsm.AmortizedRMRs < float64(dsm.FirstRMRs)*0.9 {
		t.Fatalf("DSM should not amortize: first=%d amortized=%f", dsm.FirstRMRs, dsm.AmortizedRMRs)
	}
	// Fences never amortize: they are a per-passage constant.
	if pt.AmortizedFences < 3.5 || pt.AmortizedFences > 4.5 {
		t.Fatalf("amortized fences %f, want ~4", pt.AmortizedFences)
	}
	if _, err := MeasureLockRepeated(LockSpec{Kind: Bakery}, 4, 0, CombinedModel); err == nil {
		t.Error("passages=0 should error")
	}
}

func TestWitnessScheduleReplay(t *testing.T) {
	v, err := CheckMutexCtx(context.Background(), LockSpec{Kind: BakeryTSO}, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 3_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated || v.WitnessSchedule == "" {
		t.Fatalf("expected violation with schedule, got %+v", v)
	}
	trace, err := ReplaySchedule(LockSpec{Kind: BakeryTSO}, 2, 1, PSO, v.WitnessSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if trace != v.Witness {
		t.Fatal("replayed trace differs from the original witness")
	}
	if _, err := ReplaySchedule(LockSpec{Kind: BakeryTSO}, 2, 1, PSO, "garbage!"); err == nil {
		t.Error("garbage schedule accepted")
	}
}

func TestMeasureLockContended(t *testing.T) {
	// The tournament tree is a local-spin algorithm: its contended RMR
	// count stays within a small factor of the solo count under the
	// cache-aware (combined) accounting.
	pt, err := MeasureLockContended(LockSpec{Kind: Tournament}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ContendedRMRs < pt.SoloRMRs {
		t.Fatalf("contended (%d) below solo (%d)?", pt.ContendedRMRs, pt.SoloRMRs)
	}
	if pt.ContendedRMRs > 8*pt.SoloRMRs {
		t.Fatalf("tournament not local-spin: solo=%d contended=%d", pt.SoloRMRs, pt.ContendedRMRs)
	}
	// Fences are schedule-independent: the contended fence count equals
	// the Count wrapper's sequential one.
	sys, err := NewSystem(LockSpec{Kind: Tournament}, Count, 8)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sys.RunSequential(PSO, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ContendedFences != seq.MaxFences {
		t.Fatalf("fences changed under contention: %d vs %d", pt.ContendedFences, seq.MaxFences)
	}
}

func TestCheckFCFSFacade(t *testing.T) {
	// Bakery: FCFS proved.
	v, err := CheckFCFSCtx(context.Background(), LockSpec{Kind: Bakery}, 2, PSO, CheckOptions{Budget: Budget{MaxStates: 5_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Proved || v.Violated {
		t.Fatalf("bakery FCFS verdict: %+v", v)
	}
	// GT_2 with 3 processes: overtake found.
	v, err = CheckFCFSCtx(context.Background(), LockSpec{Kind: GT, F: 2}, 3, PSO, CheckOptions{Budget: Budget{MaxStates: 8_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated {
		t.Fatalf("GT_2 FCFS verdict: %+v", v)
	}
	// Tournament: no doorway, FCFS undefined.
	if _, err := CheckFCFSCtx(context.Background(), LockSpec{Kind: Tournament}, 2, PSO, CheckOptions{Budget: Budget{MaxStates: 1000}}); err == nil {
		t.Error("tournament FCFS check should be rejected")
	}
}

func TestCheckLivenessFacade(t *testing.T) {
	v, err := CheckLivenessCtx(context.Background(), LockSpec{Kind: Peterson}, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 2_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Complete || !v.DeadlockFree || !v.WeakObstructionFree {
		t.Fatalf("peterson liveness verdict: %+v", v)
	}
	if v.StuckStates != 0 {
		t.Fatalf("stuck states on a correct lock: %+v", v)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	bad := LockSpec{Kind: LockKind(99)}
	if _, err := NewSystem(bad, Count, 2); err == nil {
		t.Error("unknown lock kind accepted by NewSystem")
	}
	if _, err := CheckMutexCtx(context.Background(), bad, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 100}}); err == nil {
		t.Error("unknown lock kind accepted by CheckMutexCtx")
	}
	if _, err := CheckLivenessCtx(context.Background(), bad, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 100}}); err == nil {
		t.Error("unknown lock kind accepted by CheckLivenessCtx")
	}
	if _, err := CheckFCFSCtx(context.Background(), bad, 2, PSO, CheckOptions{Budget: Budget{MaxStates: 100}}); err == nil {
		t.Error("unknown lock kind accepted by CheckFCFSCtx")
	}
	if _, err := MeasureLock(bad, 4); err == nil {
		t.Error("unknown lock kind accepted by MeasureLock")
	}
	if _, err := NewSystem(LockSpec{Kind: Bakery}, ObjectKind(42), 2); err == nil {
		t.Error("unknown object kind accepted")
	}
	if _, err := NewSystem(LockSpec{Kind: Peterson}, Count, 5); err == nil {
		t.Error("peterson with n=5 accepted")
	}
	if _, err := ReplaySchedule(bad, 2, 1, PSO, "p0"); err == nil {
		t.Error("unknown lock kind accepted by ReplaySchedule")
	}
}

func TestDemoLockKindsWired(t *testing.T) {
	// The demo kinds must be constructible through the facade (used by
	// the liveness example) and declare no correct models.
	for _, k := range []LockKind{DeadlockDemo, RendezvousDemo} {
		if _, err := NewSystem(LockSpec{Kind: k}, Count, 2); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if got := (LockSpec{Kind: k}).CorrectUnder(); got != nil {
			t.Errorf("%v claims correctness under %v", k, got)
		}
	}
}

func TestLockSpecStrings(t *testing.T) {
	if s := (LockSpec{Kind: GT, F: 3}).String(); s != "gt3" {
		t.Errorf("GT spec string %q", s)
	}
	if s := (LockSpec{Kind: Bakery}).String(); s != "bakery" {
		t.Errorf("bakery spec string %q", s)
	}
	if ObjectKind(99).String() == "" || LockKind(99).String() == "" || MemoryModel(99).String() == "" {
		t.Error("unknown enum strings should be non-empty")
	}
}
