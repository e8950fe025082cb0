package tradingfences_test

import (
	"context"
	"fmt"
	"log"

	"tradingfences"
)

// The simplest use of the library: run the paper's Count object over a
// Bakery lock and read off the ranks and the passage costs.
func Example() {
	sys, err := tradingfences.NewSystem(
		tradingfences.LockSpec{Kind: tradingfences.Bakery},
		tradingfences.Count, 4)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.RunSequential(tradingfences.PSO, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranks:", rep.Returns)
	fmt.Printf("per passage: %d fences, %d RMRs\n", rep.MaxFences, rep.MaxRMRs)
	// Output:
	// ranks: [0 1 2 3]
	// per passage: 6 fences, 8 RMRs
}

// MeasureLock gives one point of the fence/RMR tradeoff. Bakery's fence
// count is independent of n while its RMRs grow linearly.
func ExampleMeasureLock() {
	for _, n := range []int{8, 32} {
		pt, err := tradingfences.MeasureLock(tradingfences.LockSpec{Kind: tradingfences.Bakery}, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d: f=%d r=%d\n", n, pt.Fences, pt.RMRs)
	}
	// Output:
	// n=8: f=4 r=16
	// n=32: f=4 r=64
}

// TradeoffSweepCtx reproduces Equation 2: for fixed n, RMRs fall as
// fences rise along the GT_f family.
func ExampleTradeoffSweepCtx() {
	pts, err := tradingfences.TradeoffSweepCtx(context.Background(), 16)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range pts {
		fmt.Printf("GT_%d: f=%d r=%d\n", pt.Lock.F, pt.Fences, pt.RMRs)
	}
	// Output:
	// GT_1: f=4 r=32
	// GT_2: f=8 r=17
	// GT_3: f=12 r=20
	// GT_4: f=16 r=19
}

// EncodePermutationCtx runs the paper's Section 5 construction; the code
// decodes back to the same permutation.
func ExampleEncodePermutationCtx() {
	spec := tradingfences.LockSpec{Kind: tradingfences.Bakery}
	pi := []int{2, 0, 3, 1}
	rep, err := tradingfences.EncodePermutationCtx(context.Background(), spec, tradingfences.Count, pi, tradingfences.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	back, err := tradingfences.RecoverPermutationFromCode(spec, tradingfences.Count, 4, rep.Code, rep.BitLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered:", back)
	fmt.Println("round trip ok:", fmt.Sprint(back) == fmt.Sprint(pi))
	// Output:
	// recovered: [2 0 3 1]
	// round trip ok: true
}

// CheckMutexCtx proves or refutes mutual exclusion exhaustively. The
// TSO-placement Peterson lock is correct under TSO and broken under PSO.
func ExampleCheckMutexCtx() {
	spec := tradingfences.LockSpec{Kind: tradingfences.PetersonTSO}
	opts := tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: 2_000_000}}
	for _, m := range []tradingfences.MemoryModel{tradingfences.TSO, tradingfences.PSO} {
		v, err := tradingfences.CheckMutexCtx(context.Background(), spec, 2, 1, m, opts)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case v.Proved:
			fmt.Printf("%v: proved\n", m)
		case v.Violated:
			fmt.Printf("%v: violated\n", m)
		}
	}
	// Output:
	// TSO: proved
	// PSO: violated
}

// CheckFCFSCtx shows the fairness dimension: Bakery is first-come-first-
// served, GT_2 is not.
func ExampleCheckFCFSCtx() {
	ctx := context.Background()
	v, err := tradingfences.CheckFCFSCtx(ctx, tradingfences.LockSpec{Kind: tradingfences.Bakery}, 2, tradingfences.PSO,
		tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: 5_000_000}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bakery FCFS proved:", v.Proved)
	v, err = tradingfences.CheckFCFSCtx(ctx, tradingfences.LockSpec{Kind: tradingfences.GT, F: 2}, 3, tradingfences.PSO,
		tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: 8_000_000}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gt2 FCFS violated:", v.Violated)
	// Output:
	// bakery FCFS proved: true
	// gt2 FCFS violated: true
}

// ShapeGT renders the Figure 1 structure.
func ExampleShapeGT() {
	sh := tradingfences.ShapeGT(64, 2)
	fmt.Printf("height %d, branching %d, nodes per level %v\n", sh.F, sh.Branching, sh.NodesPerLevel)
	// Output:
	// height 2, branching 8, nodes per level [8 1]
}
