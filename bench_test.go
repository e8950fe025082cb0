package tradingfences

// One benchmark per experiment of DESIGN.md's experiment index. Each
// benchmark reports, via b.ReportMetric, the quantities EXPERIMENTS.md
// records as paper-vs-measured. Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"testing"

	"tradingfences/internal/core"
	"tradingfences/internal/machine"
	"tradingfences/internal/perm"
)

// T1 — Table 1: the command census of the encoding. The benchmark encodes
// a fixed random permutation and reports how often each of the five
// commands appears; only those five may appear.
func BenchmarkTable1CommandCensus(b *testing.B) {
	for _, lock := range []LockSpec{{Kind: Bakery}, {Kind: Tournament}} {
		b.Run(lock.String(), func(b *testing.B) {
			const n = 16
			pi := RandomPerm(n, 1)
			var rep *EncodingReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = EncodePermutationCtx(context.Background(), lock, Count, pi, Budget{})
				if err != nil {
					b.Fatal(err)
				}
			}
			c := rep.Census
			b.ReportMetric(float64(c.Proceed), "proceed")
			b.ReportMetric(float64(c.Commit), "commit")
			b.ReportMetric(float64(c.WaitHiddenCommit), "whc")
			b.ReportMetric(float64(c.WaitReadFinish), "wrf")
			b.ReportMetric(float64(c.WaitLocalFinish), "wlf")
		})
	}
}

// F1 — Figure 1: the GT_f schematic. Structural reproduction: height f,
// branching ⌈n^(1/f)⌉, single root.
func BenchmarkFigure1TreeShape(b *testing.B) {
	const n = 256
	for i := 0; i < b.N; i++ {
		for f := 1; f <= 8; f++ {
			sh := ShapeGT(n, f)
			if len(sh.NodesPerLevel) != f || sh.NodesPerLevel[f-1] != 1 {
				b.Fatalf("GT_%d shape wrong: %+v", f, sh)
			}
		}
	}
	sh := ShapeGT(n, 2)
	b.ReportMetric(float64(sh.Branching), "branching(n=256,f=2)")
}

// E1 — Bakery: O(1) fences, Θ(n) RMRs per passage.
func BenchmarkBakeryComplexity(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var pt SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLock(LockSpec{Kind: Bakery}, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Fences), "fences/passage")
			b.ReportMetric(float64(pt.RMRs), "rmrs/passage")
			b.ReportMetric(float64(pt.RMRs)/float64(n), "rmrs/n")
		})
	}
}

// E2 — tournament tree: Θ(log n) fences and RMRs per passage.
func BenchmarkTournamentComplexity(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var pt SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLock(LockSpec{Kind: Tournament}, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Fences), "fences/passage")
			b.ReportMetric(float64(pt.RMRs), "rmrs/passage")
		})
	}
}

// E3 — Equation 2 tightness: the GT_f sweep. For each f the measured RMRs
// per passage are reported against the budget f·n^(1/f).
func BenchmarkGTfTradeoffSweep(b *testing.B) {
	const n = 256
	for f := 1; f <= 8; f++ {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			var pt SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLock(LockSpec{Kind: GT, F: f}, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Fences), "fences/passage")
			b.ReportMetric(float64(pt.RMRs), "rmrs/passage")
			b.ReportMetric(float64(pt.RMRs)/pt.RMRBound, "rmrs/budget")
		})
	}
}

// E4 — Theorem 4.2: the lower-bound encoding. Reports the bit-exact code
// length and the theorem's left side, both normalized by n·log2(n).
func BenchmarkLowerBoundEncoding(b *testing.B) {
	for _, cfg := range []struct {
		lock LockSpec
		n    int
	}{
		{LockSpec{Kind: Bakery}, 16},
		{LockSpec{Kind: Bakery}, 32},
		{LockSpec{Kind: Bakery}, 64},
		{LockSpec{Kind: Bakery}, 128},
		{LockSpec{Kind: GT, F: 2}, 32},
		{LockSpec{Kind: GT, F: 2}, 64},
		{LockSpec{Kind: Tournament}, 32},
	} {
		b.Run(fmt.Sprintf("%v/n=%d", cfg.lock, cfg.n), func(b *testing.B) {
			pi := RandomPerm(cfg.n, 7)
			var rep *EncodingReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = EncodePermutationCtx(context.Background(), cfg.lock, Count, pi, Budget{})
				if err != nil {
					b.Fatal(err)
				}
			}
			nlogn := rep.InfoContent
			b.ReportMetric(float64(rep.Fences), "beta")
			b.ReportMetric(float64(rep.RMRs), "rho")
			b.ReportMetric(float64(rep.BitLen)/nlogn, "bits/lg(n!)")
			b.ReportMetric(rep.TheoremLHS/nlogn, "LHS/lg(n!)")
		})
	}
}

// E5 — Equation 1 as a per-passage identity: f·(log2(r/f)+1)/log2(n) stays
// within constant bounds for every lock in the family.
func BenchmarkTradeoffProduct(b *testing.B) {
	const n = 256
	specs := []LockSpec{
		{Kind: Bakery},
		{Kind: GT, F: 2},
		{Kind: GT, F: 4},
		{Kind: Tournament},
		{Kind: Filter}, // suboptimal baseline: product Θ(n), not Θ(log n)
	}
	for _, spec := range specs {
		b.Run(spec.String(), func(b *testing.B) {
			var pt SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLock(spec, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Normalized, "LHS/lg(n)")
		})
	}
}

// E6 — the TSO/PSO separation: the full exhaustive matrix.
func BenchmarkSeparation(b *testing.B) {
	var rows []SeparationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = SeparationMatrixCtx(context.Background(), CheckOptions{Budget: Budget{MaxStates: 3_000_000}})
		if err != nil {
			b.Fatal(err)
		}
	}
	violations := 0
	proofs := 0
	for _, row := range rows {
		for _, v := range row.Verdicts {
			if v.Violated {
				violations++
			}
			if v.Proved {
				proofs++
			}
		}
	}
	b.ReportMetric(float64(violations), "violations")
	b.ReportMetric(float64(proofs), "proofs")
}

// E7 — the tradeoff extends to the other ordering objects: encoding works
// and the object costs equal the lock's ± O(1).
func BenchmarkOrderingObjects(b *testing.B) {
	const n = 12
	for _, obj := range []ObjectKind{Count, FetchAndIncrement, QueueEnqueue} {
		b.Run(obj.String(), func(b *testing.B) {
			pi := RandomPerm(n, 3)
			var rep *EncodingReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = EncodePermutationCtx(context.Background(), LockSpec{Kind: Bakery}, obj, pi, Budget{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Fences)/float64(n), "fences/proc")
			b.ReportMetric(float64(rep.RMRs)/float64(n), "rmrs/proc")
		})
	}
}

// E8 — liveness: deadlock freedom and weak obstruction-freedom of the
// correct locks, full state graph.
func BenchmarkLiveness(b *testing.B) {
	for _, spec := range []LockSpec{{Kind: Peterson}, {Kind: Bakery}, {Kind: Tournament}} {
		b.Run(spec.String(), func(b *testing.B) {
			var v *LivenessVerdict
			var err error
			for i := 0; i < b.N; i++ {
				v, err = CheckLivenessCtx(context.Background(), spec, 2, 1, PSO, CheckOptions{Budget: Budget{MaxStates: 3_000_000}})
				if err != nil && !IsLimit(err) {
					b.Fatal(err)
				}
			}
			if !v.DeadlockFree || !v.WeakObstructionFree || !v.Complete {
				b.Fatalf("liveness failed: %+v", v)
			}
			b.ReportMetric(float64(v.States), "states")
		})
	}
}

// E9 — RMR accounting comparison: the paper's combined model vs the
// classical DSM and CC models on the same passages. Combined is the
// weakest counting (the lower bound transfers).
func BenchmarkAccountingComparison(b *testing.B) {
	const n = 64
	for _, spec := range []LockSpec{{Kind: Bakery}, {Kind: Tournament}} {
		b.Run(spec.String(), func(b *testing.B) {
			var combined, dsm, cc SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				if combined, err = MeasureLockIn(spec, n, CombinedModel); err != nil {
					b.Fatal(err)
				}
				if dsm, err = MeasureLockIn(spec, n, DSMModel); err != nil {
					b.Fatal(err)
				}
				if cc, err = MeasureLockIn(spec, n, CCModel); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(combined.RMRs), "combined")
			b.ReportMetric(float64(dsm.RMRs), "dsm")
			b.ReportMetric(float64(cc.RMRs), "cc")
		})
	}
}

// E10 — repeated-passage amortization: warm caches make Bakery's scan
// nearly free after the first passage; fences never amortize.
func BenchmarkAmortizedPassages(b *testing.B) {
	const n, passages = 64, 8
	for _, spec := range []LockSpec{{Kind: Bakery}, {Kind: Tournament}} {
		b.Run(spec.String(), func(b *testing.B) {
			var pt AmortizedPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLockRepeated(spec, n, passages, CombinedModel)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.FirstRMRs), "first-rmrs")
			b.ReportMetric(pt.AmortizedRMRs, "amortized-rmrs")
			b.ReportMetric(pt.AmortizedFences, "fences/passage")
		})
	}
}

// E11 — contention: per-process worst-case RMRs under a fair round-robin
// schedule vs sequential passages; local-spin structure keeps the
// contended column bounded.
func BenchmarkContention(b *testing.B) {
	const n = 16
	for _, spec := range []LockSpec{{Kind: Bakery}, {Kind: GT, F: 2}, {Kind: Tournament}} {
		b.Run(spec.String(), func(b *testing.B) {
			var pt ContentionPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = MeasureLockContended(spec, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.SoloRMRs), "solo-rmrs")
			b.ReportMetric(float64(pt.ContendedRMRs), "contended-rmrs")
		})
	}
}

// E12 — FCFS: Bakery's fence-heavy doorway buys first-come-first-served
// fairness; GT_2 gives it up (an overtake exists). Both verdicts are
// exhaustive over the machine × precedence-monitor product.
func BenchmarkFCFS(b *testing.B) {
	cases := []struct {
		spec LockSpec
		n    int
	}{
		{LockSpec{Kind: Bakery}, 2},
		{LockSpec{Kind: Peterson}, 2},
		{LockSpec{Kind: GT, F: 2}, 3},
	}
	for _, c := range cases {
		b.Run(c.spec.String(), func(b *testing.B) {
			var v *FCFSVerdict
			var err error
			for i := 0; i < b.N; i++ {
				v, err = CheckFCFSCtx(context.Background(), c.spec, c.n, PSO, CheckOptions{Budget: Budget{MaxStates: 8_000_000}})
				if err != nil && !IsLimit(err) {
					b.Fatal(err)
				}
			}
			viol := 0.0
			if v.Violated {
				viol = 1.0
			}
			b.ReportMetric(viol, "violated")
			b.ReportMetric(float64(v.States), "states")
		})
	}
}

// Ablation — the decoder's solo-termination cache (DESIGN.md §5.1): the
// enabledness rule of D2 needs "does p terminate running alone?" at every
// step; caching the answer between other-process commits is what makes
// decoding affordable.
func BenchmarkAblationSoloCache(b *testing.B) {
	const n = 12
	sys, err := NewSystem(LockSpec{Kind: Bakery}, Count, n)
	if err != nil {
		b.Fatal(err)
	}
	enc := &core.Encoder{Build: func() (*machine.Config, error) { return sys.newConfig(PSO) }}
	res, err := enc.Encode(perm.Identity(n))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts core.DecodeOpts
	}{
		{"cached", core.DecodeOpts{}},
		{"uncached", core.DecodeOpts{DisableSoloCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var checks int
			for i := 0; i < b.N; i++ {
				cfg, err := sys.newConfig(PSO)
				if err != nil {
					b.Fatal(err)
				}
				work := make([]*core.Stack, n)
				for j, s := range res.Stacks {
					work[j] = s.Clone()
				}
				dec, err := core.DecodeWith(cfg, work, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				checks = dec.SoloChecks
			}
			b.ReportMetric(float64(checks), "solo-checks")
		})
	}
}

// Ablation — the encoder's decode checkpoint (DESIGN.md §5.3): appending a
// command to the bottom of p_τ's stack leaves the decode unchanged up to
// the point where that stack emptied, so the encoder snapshots there and
// resumes instead of replaying the prefix.
func BenchmarkAblationDecodeCheckpoint(b *testing.B) {
	const n = 16
	sys, err := NewSystem(LockSpec{Kind: Bakery}, Count, n)
	if err != nil {
		b.Fatal(err)
	}
	pi := perm.Reverse(n)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"checkpointed", false},
		{"full-redecode", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			enc := &core.Encoder{
				Build:             func() (*machine.Config, error) { return sys.newConfig(PSO) },
				DisableCheckpoint: mode.disable,
			}
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation — encoder cost scaling: with checkpointing, only the suffix
// after p_τ's stack-empty point is re-executed per iteration; this
// benchmark pins the growth curve.
func BenchmarkAblationEncoderScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pi := IdentityPerm(n)
			var rep *EncodingReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = EncodePermutationCtx(context.Background(), LockSpec{Kind: Bakery}, Count, pi, Budget{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Iterations), "iterations")
			b.ReportMetric(float64(rep.Steps), "steps")
		})
	}
}

// Throughput — raw machine step rate, the substrate cost everything above
// is built on.
func BenchmarkMachineStepThroughput(b *testing.B) {
	sys, err := NewSystem(LockSpec{Kind: Bakery}, Count, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		cfg, err := sys.newConfig(PSO)
		if err != nil {
			b.Fatal(err)
		}
		if err := machine.RunRoundRobin(cfg, 2_000_000); err != nil {
			b.Fatal(err)
		}
		steps += int(cfg.Stats().TotalSteps())
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}
