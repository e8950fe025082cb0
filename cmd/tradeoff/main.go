// Command tradeoff prints the empirical fence/RMR tradeoff of the
// generalized tournament family GT_f (Equations 1 and 2 of the paper):
// for each tree height f = 1..log2(n), the measured per-passage fences and
// RMRs of one uncontended passage under the PSO machine, the Equation 2
// budget f·n^(1/f), and the Equation 1 product f·(log2(r/f)+1)/log2(n).
//
// With -shape it instead prints the static structure of GT_f (the paper's
// Figure 1): the branching factor and the node counts per level.
//
// Usage:
//
//	tradeoff [-n 256] [-shape] [-f height]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tradingfences"
)

func main() {
	n := flag.Int("n", 256, "number of processes")
	shape := flag.Bool("shape", false, "print the GT_f tree structure (Figure 1) instead of measurements")
	fOnly := flag.Int("f", 0, "restrict to a single tree height (0 = all)")
	flag.Parse()

	if err := run(*n, *shape, *fOnly); err != nil {
		fmt.Fprintln(os.Stderr, "tradeoff:", err)
		os.Exit(1)
	}
}

func run(n int, shape bool, fOnly int) error {
	if shape {
		return printShapes(n, fOnly)
	}
	pts, err := tradingfences.TradeoffSweepCtx(context.Background(), n)
	if err != nil {
		return err
	}
	fmt.Printf("GT_f tradeoff sweep, n = %d, PSO machine, one uncontended passage\n", n)
	fmt.Printf("%-6s %-6s %-8s %-8s %-12s %-10s %-14s\n",
		"f", "b", "fences", "RMRs", "f·n^(1/f)", "r/budget", "LHS/log2(n)")
	for _, pt := range pts {
		if fOnly != 0 && pt.Lock.F != fOnly {
			continue
		}
		sh := tradingfences.ShapeGT(n, pt.Lock.F)
		fmt.Printf("%-6d %-6d %-8d %-8d %-12.1f %-10.2f %-14.2f\n",
			pt.Lock.F, sh.Branching, pt.Fences, pt.RMRs, pt.RMRBound,
			float64(pt.RMRs)/pt.RMRBound, pt.Normalized)
	}
	fmt.Println()
	fmt.Println("Reading: fences grow ~linearly in f while RMRs fall ~geometrically;")
	fmt.Println("the product column stays Θ(1)·log2(n), matching Equation 1's tightness.")
	return nil
}

func printShapes(n, fOnly int) error {
	maxF := 1
	for p := 1; p < n; p *= 2 {
		maxF++
	}
	fmt.Printf("GT_f structure for n = %d (Figure 1): Bakery[b] at every node\n\n", n)
	for f := 1; f < maxF; f++ {
		if fOnly != 0 && f != fOnly {
			continue
		}
		sh := tradingfences.ShapeGT(n, f)
		fmt.Printf("GT_%d: height %d, branching b = %d\n", f, f, sh.Branching)
		fmt.Printf("  %-10s: %d leaves (one per process)\n", "leaves", n)
		for h, nodes := range sh.NodesPerLevel {
			label := fmt.Sprintf("height %d", h+1)
			if h == len(sh.NodesPerLevel)-1 {
				label += " (root)"
			}
			bar := strings.Repeat("▪", min(nodes, 64))
			fmt.Printf("  %-10s: %4d × Bakery[%d]  %s\n", label, nodes, sh.Branching, bar)
		}
		fmt.Println()
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
