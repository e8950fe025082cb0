// Permcode: the lower-bound machinery as a working codec. A permutation π
// of the processes is turned into an execution E_π of Count-over-Bakery
// (the paper's Section 5.2 construction), encoded into a bit string of
// command stacks (Table 1), and decoded back: the bit string replays the
// execution and the ranks read off the return values reproduce π exactly.
// The bit length is compared against log2(n!) — the information floor that
// powers Theorem 4.2's Ω(n log n) bound.
package main

import (
	"context"
	"fmt"
	"log"

	"tradingfences"
)

func main() {
	const n = 12
	spec := tradingfences.LockSpec{Kind: tradingfences.Bakery}

	pi := tradingfences.RandomPerm(n, 2026)
	fmt.Printf("π               = %v\n", pi)

	rep, err := tradingfences.EncodePermutationCtx(context.Background(), spec, tradingfences.Count, pi, tradingfences.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution E_π   : %d steps, β = %d fences, ρ = %d RMRs\n",
		rep.Steps, rep.Fences, rep.RMRs)
	fmt.Printf("command stacks  : m = %d commands, parameter sum v = %d\n",
		rep.Commands, rep.ParamSum)
	fmt.Printf("  census        : %d proceed, %d commit, %d wait-hidden-commit, %d wait-read-finish, %d wait-local-finish\n",
		rep.Census.Proceed, rep.Census.Commit, rep.Census.WaitHiddenCommit,
		rep.Census.WaitReadFinish, rep.Census.WaitLocalFinish)
	fmt.Printf("code            : %d bits (%x...)\n", rep.BitLen, rep.Code[:min(8, len(rep.Code))])
	fmt.Printf("entropy floor   : log2(%d!) = %.1f bits\n", n, tradingfences.Log2Factorial(n))
	fmt.Printf("paper bound     : m·(lg(v/m)+1) = %.1f,  β·(lg(ρ/β)+1) = %.1f\n",
		rep.Bound, rep.TheoremLHS)

	back, err := tradingfences.RecoverPermutationFromCode(spec, tradingfences.Count, n, rep.Code, rep.BitLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded π       = %v\n", back)
	for i := range pi {
		if back[i] != pi[i] {
			log.Fatalf("round trip failed at position %d", i)
		}
	}
	fmt.Println("round trip      : ok — the code uniquely identifies the permutation")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
