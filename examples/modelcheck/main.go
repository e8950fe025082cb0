// Modelcheck: use the exhaustive checker to see the memory-model
// separation with your own eyes. The same Bakery code minus one fence
// (the one TSO's FIFO store buffer makes redundant) is proved correct
// under TSO and then broken under PSO, with the violating schedule
// printed step by step.
package main

import (
	"context"
	"fmt"
	"log"

	"tradingfences"
)

func main() {
	spec := tradingfences.LockSpec{Kind: tradingfences.BakeryTSO}
	const states = 3_000_000
	ctx := context.Background()
	opts := tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: states}}

	fmt.Println("lock under test: bakery-tso — classic Bakery with the fence between")
	fmt.Println("the ticket write and the choosing-flag write removed (TSO commits")
	fmt.Println("them in order anyway; PSO does not).")
	fmt.Println()

	for _, model := range tradingfences.Models() {
		v, err := tradingfences.CheckMutexCtx(ctx, spec, 2, 1, model, opts)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case v.Proved:
			fmt.Printf("%-4v: mutual exclusion PROVED (%d states, exhaustive)\n", model, v.States)
		case v.Violated:
			fmt.Printf("%-4v: mutual exclusion VIOLATED (%d states searched)\n", model, v.States)
		default:
			fmt.Printf("%-4v: inconclusive within %d states\n", model, states)
		}
	}

	v, err := tradingfences.CheckMutexCtx(ctx, spec, 2, 1, tradingfences.PSO, opts)
	if err != nil {
		log.Fatal(err)
	}
	if !v.Violated {
		log.Fatal("expected a PSO violation")
	}
	fmt.Println("\nPSO counterexample (write commits reordered against program order):")
	fmt.Print(v.Witness)
	fmt.Println("\nat the end both processes are inside the critical section.")
}
