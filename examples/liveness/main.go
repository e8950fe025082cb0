// Liveness: mutual exclusion is only requirement (1) of the paper's lock
// definition — requirement (2) is deadlock freedom. This example runs the
// full state-graph liveness analysis (deadlock freedom via reverse
// reachability from the completed states, plus the paper's weak
// obstruction-freedom condition) on a correct lock and on two deliberately
// broken controls:
//
//   - deadlock-demo: raise own flag, wait for the other's to drop — a
//     deadly embrace. Mutually exclusive and weakly obstruction-free (a
//     process running alone never blocks), but NOT deadlock-free.
//   - rendezvous-demo: wait for the other's flag to RISE — a process
//     running alone spins forever, violating weak obstruction-freedom
//     itself.
package main

import (
	"context"
	"fmt"
	"log"

	"tradingfences"
)

func main() {
	ctx := context.Background()
	opts := tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: 2_000_000}}
	specs := []tradingfences.LockSpec{
		{Kind: tradingfences.Peterson},
		{Kind: tradingfences.Bakery},
		{Kind: tradingfences.DeadlockDemo},
		{Kind: tradingfences.RendezvousDemo},
	}

	fmt.Println("full state-graph liveness analysis (2 processes, 1 passage, PSO):")
	fmt.Println()
	fmt.Printf("%-17s %-8s %-9s %-15s %-24s\n",
		"lock", "states", "mutex", "deadlock-free", "weakly obstruction-free")
	for _, spec := range specs {
		mv, err := tradingfences.CheckMutexCtx(ctx, spec, 2, 1, tradingfences.PSO, opts)
		if err != nil {
			log.Fatal(err)
		}
		// A tripped budget leaves an inconclusive (Complete=false) verdict.
		lv, err := tradingfences.CheckLivenessCtx(ctx, spec, 2, 1, tradingfences.PSO, opts)
		if err != nil && !tradingfences.IsLimit(err) {
			log.Fatal(err)
		}
		mutex := "proved"
		if mv.Violated {
			mutex = "VIOLATED"
		}
		fmt.Printf("%-17v %-8d %-9s %-15v %-24v\n",
			spec, lv.States, mutex, lv.DeadlockFree, lv.WeakObstructionFree)
	}

	fmt.Println()
	fmt.Println("Reading: the deadly embrace is safe and weakly obstruction-free yet")
	fmt.Println("deadlocks (deadlock freedom strictly implies weak obstruction-freedom,")
	fmt.Println("as the paper notes in Section 2); the rendezvous variant fails even the")
	fmt.Println("weaker condition. The real locks satisfy everything, exhaustively.")
}
