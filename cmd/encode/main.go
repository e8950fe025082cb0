// Command encode runs the paper's Section 5 lower-bound construction: for
// one or more permutations π it builds the execution E_π of an ordering
// object over a lock, encodes it as command stacks (Table 1), and reports
// the fence count β, the RMR count ρ, the command census, the bit-exact
// code length, and the information-theoretic floor log2(n!). It then
// decodes the bit string back and verifies the permutation is recovered.
//
// Usage:
//
//	encode [-n 16] [-lock bakery|tournament|gt2|gt3|...] [-perms 5] [-seed 1] [-pi "2,0,1"]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tradingfences"
)

func main() {
	n := flag.Int("n", 16, "number of processes")
	lock := flag.String("lock", "bakery", "lock: bakery, tournament, peterson, or gtF (e.g. gt2)")
	perms := flag.Int("perms", 3, "number of random permutations to encode")
	seed := flag.Int64("seed", 1, "random seed for permutations")
	piFlag := flag.String("pi", "", "explicit permutation, comma-separated (overrides -perms)")
	traceRows := flag.Int("trace", 0, "print a per-process timeline of a contended run (first N steps)")
	flag.Parse()

	if *traceRows > 0 {
		spec, err := parseLock(*lock)
		if err != nil {
			fmt.Fprintln(os.Stderr, "encode:", err)
			os.Exit(1)
		}
		out, err := tradingfences.TraceTimeline(spec, *n, tradingfences.PSO, *traceRows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "encode:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	if err := run(*n, *lock, *perms, *seed, *piFlag); err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}
}

func parseLock(s string) (tradingfences.LockSpec, error) {
	switch s {
	case "bakery":
		return tradingfences.LockSpec{Kind: tradingfences.Bakery}, nil
	case "tournament":
		return tradingfences.LockSpec{Kind: tradingfences.Tournament}, nil
	case "peterson":
		return tradingfences.LockSpec{Kind: tradingfences.Peterson}, nil
	default:
		if f, ok := strings.CutPrefix(s, "gt"); ok {
			h, err := strconv.Atoi(f)
			if err != nil || h < 1 {
				return tradingfences.LockSpec{}, fmt.Errorf("bad GT height in %q", s)
			}
			return tradingfences.LockSpec{Kind: tradingfences.GT, F: h}, nil
		}
		return tradingfences.LockSpec{}, fmt.Errorf("unknown lock %q", s)
	}
}

func run(n int, lock string, perms int, seed int64, piFlag string) error {
	spec, err := parseLock(lock)
	if err != nil {
		return err
	}
	ctx := context.Background()

	var pis [][]int
	switch {
	case piFlag != "":
		parts := strings.Split(piFlag, ",")
		pi := make([]int, len(parts))
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad permutation element %q", p)
			}
			pi[i] = v
		}
		n = len(pi)
		pis = [][]int{pi}
	default:
		pis = append(pis, tradingfences.IdentityPerm(n), tradingfences.ReversePerm(n))
		for i := 0; i < perms; i++ {
			pis = append(pis, tradingfences.RandomPerm(n, seed+int64(i)))
		}
	}

	fmt.Printf("Lower-bound construction: Count over %v, n = %d, PSO machine\n", spec, n)
	fmt.Printf("log2(n!) = %.1f bits (entropy floor for distinguishing executions)\n\n", tradingfences.Log2Factorial(n))
	fmt.Printf("%-12s %-7s %-7s %-6s %-7s %-8s %-9s %-10s %-8s\n",
		"perm", "β", "ρ", "m", "v", "bits", "bound", "β(lgρ/β+1)", "decode")

	for _, pi := range pis {
		rep, err := tradingfences.EncodePermutationCtx(ctx, spec, tradingfences.Count, pi, tradingfences.Budget{})
		if err != nil {
			return err
		}
		back, err := tradingfences.RecoverPermutationFromCode(spec, tradingfences.Count, n, rep.Code, rep.BitLen)
		if err != nil {
			return err
		}
		ok := "ok"
		for i := range pi {
			if back[i] != pi[i] {
				ok = "MISMATCH"
				break
			}
		}
		fmt.Printf("%-12s %-7d %-7d %-6d %-7d %-8d %-9.1f %-10.1f %-8s\n",
			permLabel(pi), rep.Fences, rep.RMRs, rep.Commands, rep.ParamSum,
			rep.BitLen, rep.Bound, rep.TheoremLHS, ok)
	}

	// Command census for the last permutation (the paper's Table 1).
	last := pis[len(pis)-1]
	rep, err := tradingfences.EncodePermutationCtx(ctx, spec, tradingfences.Count, last, tradingfences.Budget{})
	if err != nil {
		return err
	}
	c := rep.Census
	fmt.Printf("\nTable 1 command census for π = %s:\n", permLabel(last))
	fmt.Printf("  %-24s %d\n", "proceed", c.Proceed)
	fmt.Printf("  %-24s %d\n", "commit", c.Commit)
	fmt.Printf("  %-24s %d\n", "wait-hidden-commit(k)", c.WaitHiddenCommit)
	fmt.Printf("  %-24s %d\n", "wait-read-finish(k)", c.WaitReadFinish)
	fmt.Printf("  %-24s %d\n", "wait-local-finish(k)", c.WaitLocalFinish)
	fmt.Printf("  hidden commits executed in E_π: %d\n", rep.HiddenCommits)
	return nil
}

func permLabel(pi []int) string {
	if len(pi) <= 6 {
		parts := make([]string, len(pi))
		for i, v := range pi {
			parts[i] = strconv.Itoa(v)
		}
		return strings.Join(parts, ",")
	}
	// Identify the common shapes, otherwise hash-ish label.
	id, rev := true, true
	for i, v := range pi {
		if v != i {
			id = false
		}
		if v != len(pi)-1-i {
			rev = false
		}
	}
	switch {
	case id:
		return "identity"
	case rev:
		return "reverse"
	default:
		return fmt.Sprintf("random[%d..]", pi[0])
	}
}
