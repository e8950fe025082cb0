// Command lockstat prints the per-passage fence and RMR counts of the
// correct lock family across process counts — the Section 3 complexity
// claims: Bakery is O(1) fences / Θ(n) RMRs, the binary tournament tree is
// Θ(log n) / Θ(log n), and GT_f interpolates.
//
// Usage:
//
//	lockstat [-max 512]
//	lockstat -check peterson -model pso -por
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tradingfences"
)

func main() {
	os.Exit(realMain())
}

// realMain carries main's body so the deferred profile writers run before
// the process exits (os.Exit skips defers).
func realMain() int {
	max := flag.Int("max", 512, "largest process count (swept in powers of two from 2)")
	rmr := flag.String("rmr", "combined", "RMR accounting: combined (the paper's), dsm, or cc")
	dump := flag.String("dump", "", "print the program listing of a lock (bakery, tournament, peterson, gtF) instead of measuring")
	explain := flag.String("explain", "", "attribute a lock's RMR bill to its register arrays instead of measuring")
	dumpN := flag.Int("n", 4, "process count for -dump / -explain / -check")
	chk := flag.String("check", "", "model-check mutual exclusion of a lock instead of measuring (recoverable locks rtas, rbakery, rtournament, ... route through the RME checker)")
	model := flag.String("model", "pso", "memory model for -check: sc, tso, pso")
	crashes := flag.Int("crashes", 0, "adversarial crash budget for -check (recoverable locks recover, plain locks cold-restart)")
	states := flag.Int("states", 0, "state budget for -check (0 = unlimited)")
	workers := flag.Int("workers", 0, "worker pool of the work-stealing explorer for -check (0 = one worker, which is deterministic)")
	por := flag.Bool("por", false, "enable commit-step partial-order reduction for -check (verdict-preserving; a complete run is still a full proof)")
	reorderBound := flag.Int("reorder-bound", 0, "reorder-bounded buffer semantics for -check: each buffered write may reorder past at most this many later same-process operations (0 = full semantics; a violation-free bounded run is a bounded certificate, not a proof)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lockstat:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}
	err := func() error {
		switch {
		case *chk != "":
			return runCheck(*chk, *dumpN, *model, *states, *workers, *crashes, *por, *reorderBound)
		case *dump != "":
			return runDump(*dump, *dumpN)
		case *explain != "":
			return runExplain(*explain, *dumpN)
		default:
			acct, err := parseAcct(*rmr)
			if err != nil {
				return err
			}
			return run(*max, acct)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstat:", err)
		return 1
	}
	return 0
}

// writeHeapProfile snapshots the heap to path after a GC, so the profile
// reflects retained memory rather than garbage awaiting collection.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockstat:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "lockstat:", err)
	}
}

func parseLock(name string) (tradingfences.LockSpec, error) {
	kinds := map[string]tradingfences.LockKind{
		"bakery":           tradingfences.Bakery,
		"bakery-tso":       tradingfences.BakeryTSO,
		"bakery-literal":   tradingfences.BakeryLiteral,
		"bakery-nofence":   tradingfences.BakeryNoFence,
		"peterson":         tradingfences.Peterson,
		"peterson-tso":     tradingfences.PetersonTSO,
		"peterson-nofence": tradingfences.PetersonNoFence,
		"tournament":       tradingfences.Tournament,
		"filter":           tradingfences.Filter,
	}
	spec := tradingfences.LockSpec{}
	if k, ok := kinds[name]; ok {
		spec.Kind = k
	} else if f, ok := strings.CutPrefix(name, "gt"); ok {
		h, err := strconv.Atoi(f)
		if err != nil || h < 1 {
			return spec, fmt.Errorf("bad GT height in %q", name)
		}
		spec.Kind, spec.F = tradingfences.GT, h
	} else {
		return spec, fmt.Errorf("unknown lock %q", name)
	}
	return spec, nil
}

func runCheck(name string, n int, model string, states, workers, crashes int, por bool, reorderBound int) error {
	mm, err := tradingfences.ParseMemoryModel(model)
	if err != nil {
		return err
	}
	opts := tradingfences.CheckOptions{
		Budget:       tradingfences.Budget{MaxStates: states},
		Workers:      workers,
		POR:          por,
		ReorderBound: reorderBound,
	}
	if crashes > 0 {
		opts.Faults = &tradingfences.FaultPlan{MaxCrashes: crashes}
	}
	var (
		v    *tradingfences.MutexVerdict
		cerr error
		kind = "mutex"
		what = name
	)
	start := time.Now()
	if tradingfences.IsRMELock(name) {
		// Recoverable locks route through the RME checker: crashes recover
		// instead of cold-restarting, and the verdict carries per-passage
		// RMR watermarks.
		kind = "rme"
		v, cerr = tradingfences.CheckRMECtx(context.Background(), name, n, 1, mm, opts)
	} else {
		spec, perr := parseLock(name)
		if perr != nil {
			return perr
		}
		what = spec.String()
		v, cerr = tradingfences.CheckMutexCtx(context.Background(), spec, n, 1, mm, opts)
	}
	wall := time.Since(start)
	if v == nil {
		return cerr
	}
	verdict := "UNDECIDED"
	switch {
	case v.Violated:
		verdict = "VIOLATED"
	case v.Proved:
		verdict = "PROVED"
	case v.Coverage.BoundedComplete:
		// Complete over the reorder-bounded graph only: no violation up to
		// the bound, not a proof of the full semantics.
		verdict = fmt.Sprintf("BOUNDED-COMPLETE(k=%d)", v.Coverage.ReorderBound)
	}
	reduced := ""
	if v.Coverage.POR {
		reduced = " (POR)"
	}
	budget := ""
	if crashes > 0 {
		budget = fmt.Sprintf(", crashes<=%d", crashes)
	}
	fmt.Printf("%s %s: %s under %v, n=%d%s, %d states%s, mode=%s, %.0f ms\n",
		kind, what, verdict, mm, n, budget, v.States, reduced, v.Mode, float64(wall.Microseconds())/1000)
	if ps := v.Passages; ps != nil && ps.Count > 0 {
		fmt.Printf("max RMRs/passage: CC=%d DSM=%d (%d passages; Chan-Woelfel log n/log log n = %.2f)\n",
			ps.MaxCC, ps.MaxDSM, ps.Count, tradingfences.ChanWoelfelBound(n))
	}
	if v.Violated {
		fmt.Printf("witness: %s\n", v.WitnessSchedule)
	}
	if cerr != nil && !tradingfences.IsLimit(cerr) {
		return cerr
	}
	return nil
}

func runExplain(name string, n int) error {
	spec, err := parseLock(name)
	if err != nil {
		return err
	}
	br, err := tradingfences.ExplainRMRs(spec, n)
	if err != nil {
		return err
	}
	fmt.Printf("RMR attribution: %v, n = %d, sequential passages, PSO, combined accounting\n\n", spec, n)
	fmt.Print(br.Table)
	return nil
}

func runDump(name string, n int) error {
	spec, err := parseLock(name)
	if err != nil {
		return err
	}
	sys, err := tradingfences.NewSystem(spec, tradingfences.Count, n)
	if err != nil {
		return err
	}
	a := sys.Analyze()
	fmt.Printf("// %v, n = %d: %d static reads, %d writes, %d fences, %d locals, loop depth %d\n",
		spec, n, a.Reads, a.Writes, a.Fences, a.Locals, a.MaxLoopDepth)
	fmt.Print(sys.Listing())
	fmt.Println("\n// register map:")
	fmt.Print(sys.DescribeRegisters())
	return nil
}

func parseAcct(s string) (tradingfences.RMRModel, error) {
	switch s {
	case "combined":
		return tradingfences.CombinedModel, nil
	case "dsm":
		return tradingfences.DSMModel, nil
	case "cc":
		return tradingfences.CCModel, nil
	default:
		return 0, fmt.Errorf("unknown RMR accounting %q (want combined, dsm or cc)", s)
	}
}

func run(max int, acct tradingfences.RMRModel) error {
	specs := []tradingfences.LockSpec{
		{Kind: tradingfences.Bakery},
		{Kind: tradingfences.GT, F: 2},
		{Kind: tradingfences.GT, F: 4},
		{Kind: tradingfences.Tournament},
	}
	fmt.Printf("Per-passage cost (uncontended, PSO machine, %v RMR accounting); cells are fences/RMRs\n", acct)
	fmt.Printf("%-8s", "n")
	for _, s := range specs {
		fmt.Printf(" %-14s", s)
	}
	fmt.Println()
	for n := 2; n <= max; n *= 2 {
		fmt.Printf("%-8d", n)
		for _, s := range specs {
			pt, err := tradingfences.MeasureLockIn(s, n, acct)
			if err != nil {
				return err
			}
			fmt.Printf(" %-14s", fmt.Sprintf("%d/%d", pt.Fences, pt.RMRs))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("Reading: Bakery's fence column is flat while its RMR column grows")
	fmt.Println("linearly; the tournament tree grows logarithmically in both; GT_f")
	fmt.Println("interpolates with O(f) fences and O(f·n^(1/f)) RMRs.")
	return nil
}
