// Command separation prints the memory-model separation matrix: for each
// witness lock it exhaustively model-checks mutual exclusion under SC, TSO
// and PSO and reports either a proof (state space exhausted, no violation)
// or a counterexample. The matrix realizes the SC ⊋ TSO ⊋ PSO hierarchy
// that the paper separates complexity-theoretically: as write ordering
// weakens, strictly more fences are needed for correctness.
//
// With -witness it additionally prints the violating schedule for the
// named lock/model pair; -witness-out saves the replayable artifact,
// -crashes grants the checker an adversarial crash budget, and -replay
// re-executes a previously saved artifact (bit-for-bit certified).
//
// -workers sizes the explorer's worker pool for the -witness check
// (verdicts are identical for every worker count). -checkpoint
// additionally snapshots the exploration to a file and runs it under the
// retrying supervisor; a killed run is continued with
// -resume-check <file>, which re-certifies the snapshot — subject
// identity, memory model, and the crash budget it was taken under (so
// -crashes need not and must not be restated) — against the rebuilt
// subject before trusting it. A supervised run that reaches a terminal
// verdict deletes its snapshot.
//
// Usage:
//
//	separation [-states 3000000] [-timeout 2m] [-witness bakery-tso:PSO]
//	           [-witness-out w.json] [-crashes 1] [-workers 4] [-checkpoint ck.json]
//	separation -resume-check ck.json [-workers 4]
//	separation -replay w.json
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
	maxStates := flag.Int("states", 3_000_000, "state budget for exhaustive exploration")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	witness := flag.String("witness", "", "print the counterexample for lock:model (e.g. bakery-tso:PSO)")
	witnessOut := flag.String("witness-out", "", "write the -witness counterexample as a replayable artifact to this file")
	crashes := flag.Int("crashes", 0, "adversarial crash budget for the -witness check (0 = crash-free)")
	replay := flag.String("replay", "", "replay a witness artifact file and exit")
	liveness := flag.Bool("liveness", false, "also verify deadlock freedom and weak obstruction-freedom of the correct locks")
	fcfs := flag.Bool("fcfs", false, "also check first-come-first-served fairness (Bakery vs GT_2)")
	workers := flag.Int("workers", 0, "worker goroutines for the -witness check (0 = one worker)")
	checkpoint := flag.String("checkpoint", "", "snapshot the -witness check to this file and run it under the retrying supervisor")
	resumeCheck := flag.String("resume-check", "", "resume a checkpointed check from this snapshot file and exit")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *replay != "" {
		if err := runReplay(*replay); err != nil {
			fmt.Fprintln(os.Stderr, "separation:", err)
			os.Exit(1)
		}
		return
	}
	if *resumeCheck != "" {
		if err := runResume(ctx, *resumeCheck, *maxStates, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "separation:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(ctx, *maxStates, *witness, *witnessOut, *crashes, *workers, *checkpoint); err != nil {
		fmt.Fprintln(os.Stderr, "separation:", err)
		os.Exit(1)
	}
	if *liveness {
		if err := runLiveness(ctx, *maxStates); err != nil {
			fmt.Fprintln(os.Stderr, "separation:", err)
			os.Exit(1)
		}
	}
	if *fcfs {
		if err := runFCFS(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "separation:", err)
			os.Exit(1)
		}
	}
}

func runResume(ctx context.Context, path string, maxStates, workers int) error {
	v, err := tradingfences.ResumeMutexCheckCtx(ctx, path, tradingfences.CheckOptions{
		Budget:  tradingfences.Budget{MaxStates: maxStates},
		Workers: workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("resumed %s: %v under %v\n", path, v.Lock, v.Model)
	printMutexVerdict(v)
	return nil
}

func printMutexVerdict(v *tradingfences.MutexVerdict) {
	switch {
	case v.Violated:
		fmt.Printf("VIOLATED (%d states, mode %s)\n", v.States, v.Mode)
		if v.Witness != "" {
			fmt.Printf("\ncounterexample:\n%s", v.Witness)
		}
	case v.Proved:
		fmt.Printf("proved (%d states)\n", v.States)
	default:
		fmt.Printf("inconclusive (%d states, mode %s)\n", v.States, v.Mode)
	}
}

func runReplay(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	w, err := tradingfences.DecodeWitness(data)
	if err != nil {
		return err
	}
	trace, err := tradingfences.ReplayWitness(w)
	if err != nil {
		return err
	}
	fmt.Printf("witness %s: %s under %s, n=%d, %d passage(s)\n", path, w.Lock, w.Model, w.N, w.Passages)
	fmt.Printf("replay certified (config %s, trace %s); processes in CS: %v\n\n", w.ConfigFP, w.TraceFP, w.InCS)
	fmt.Print(trace)
	return nil
}

func runFCFS(ctx context.Context) error {
	fmt.Println()
	fmt.Println("First-come-first-served fairness (exhaustive, machine × monitor):")
	fmt.Printf("%-10s %-4s %-8s %-30s\n", "lock", "n", "states", "verdict")
	cases := []struct {
		spec tradingfences.LockSpec
		n    int
	}{
		{tradingfences.LockSpec{Kind: tradingfences.Bakery}, 2},
		{tradingfences.LockSpec{Kind: tradingfences.Peterson}, 2},
		{tradingfences.LockSpec{Kind: tradingfences.GT, F: 2}, 3},
	}
	for _, c := range cases {
		v, err := tradingfences.CheckFCFSCtx(ctx, c.spec, c.n, tradingfences.PSO,
			tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: 8_000_000}})
		if err != nil {
			return err
		}
		verdict := "FCFS proved"
		if v.Violated {
			verdict = fmt.Sprintf("VIOLATED (p%d overtook p%d)", v.Violator, v.Overtaken)
		}
		fmt.Printf("%-10v %-4d %-8d %-30s\n", c.spec, c.n, v.States, verdict)
	}
	fmt.Println()
	fmt.Println("Reading: Bakery's fence-heavy doorway buys first-come-first-served")
	fmt.Println("fairness; GT_2 trades it away together with the RMRs.")
	return nil
}

func runLiveness(ctx context.Context, maxStates int) error {
	fmt.Println()
	fmt.Println("Liveness (2 processes, 1 passage, full state graph):")
	fmt.Printf("%-14s %-6s %-8s %-14s %-22s\n", "lock", "model", "states", "deadlock-free", "weakly obstruction-free")
	for _, k := range []tradingfences.LockKind{tradingfences.Peterson, tradingfences.Bakery, tradingfences.Tournament} {
		for _, m := range tradingfences.Models() {
			v, err := tradingfences.CheckLivenessCtx(ctx, tradingfences.LockSpec{Kind: k}, 2, 1, m,
				tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: maxStates}})
			if err != nil {
				return err
			}
			fmt.Printf("%-14v %-6v %-8d %-14v %-22v\n", v.Lock, v.Model, v.States, v.DeadlockFree, v.WeakObstructionFree)
		}
	}
	return nil
}

func verdictCell(v *tradingfences.MutexVerdict) string {
	switch {
	case v.Violated:
		return fmt.Sprintf("VIOLATED(%d st)", v.States)
	case v.Proved:
		return fmt.Sprintf("proved(%d st)", v.States)
	case v.Mode == tradingfences.ModeDegraded:
		return "no viol. (degraded)"
	default:
		return "inconclusive"
	}
}

func run(ctx context.Context, maxStates int, witness, witnessOut string, crashes, workers int, checkpoint string) error {
	rows, err := tradingfences.SeparationMatrixCtx(ctx, tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: maxStates}})
	if err != nil {
		return err
	}
	fmt.Println("Memory-model separation matrix (2 processes, 1 passage, exhaustive):")
	fmt.Println()
	fmt.Printf("%-18s %-8s %-18s %-18s %-18s\n", "lock", "fences", "SC", "TSO", "PSO")
	for _, row := range rows {
		fmt.Printf("%-18s %-8d %-18s %-18s %-18s\n",
			row.Lock, row.Fences,
			verdictCell(row.Verdicts[tradingfences.SC]),
			verdictCell(row.Verdicts[tradingfences.TSO]),
			verdictCell(row.Verdicts[tradingfences.PSO]))
	}
	fmt.Println()
	fmt.Println("Reading: each model strictly weaker than the previous admits a lock")
	fmt.Println("variant with fewer fences (0 under SC, 1 under TSO, 2 under PSO for")
	fmt.Println("Peterson; 2 vs 3 acquire fences for Bakery). bakery-literal is the")
	fmt.Println("paper's printed Algorithm 1 line order, which is unsafe even under SC.")

	if witness != "" {
		parts := strings.SplitN(witness, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -witness %q, want lock:model", witness)
		}
		spec, err := tradingfences.ParseLockSpec(parts[0])
		if err != nil {
			return err
		}
		model, err := tradingfences.ParseMemoryModel(parts[1])
		if err != nil {
			return err
		}
		opts := tradingfences.CheckOptions{
			Budget:         tradingfences.Budget{MaxStates: maxStates},
			Workers:        workers,
			CheckpointPath: checkpoint,
		}
		if crashes > 0 {
			opts.Faults = &tradingfences.FaultPlan{MaxCrashes: crashes}
		}
		var v *tradingfences.MutexVerdict
		if checkpoint != "" {
			// A checkpointed check runs under the supervisor: budget trips
			// and worker failures retry from the snapshot instead of
			// restarting from zero.
			var attempts []tradingfences.SupervisedAttempt
			v, attempts, err = tradingfences.CheckMutexSupervisedCtx(ctx, spec, 2, 1, model,
				tradingfences.SuperviseOptions{CheckOptions: opts})
			if err == nil && len(attempts) > 1 {
				fmt.Printf("\nsupervisor: %d attempts", len(attempts))
				for _, a := range attempts {
					fmt.Printf("; #%d workers=%d resumed-level=%d err=%q", a.Index, a.Workers, a.ResumedLevel, a.Err)
				}
				fmt.Println()
			}
		} else {
			v, err = tradingfences.CheckMutexCtx(ctx, spec, 2, 1, model, opts)
		}
		if err != nil {
			return err
		}
		if !v.Violated {
			fmt.Printf("\nno violation of %v under %v (mode %s)\n", spec, model, v.Mode)
			return nil
		}
		fmt.Printf("\ncounterexample for %v under %v:\n%s", spec, model, v.Witness)
		if witnessOut != "" && v.Artifact != nil {
			if err := tradingfences.WriteWitnessFile(witnessOut, v.Artifact); err != nil {
				return err
			}
			fmt.Printf("\nwitness artifact written to %s (replay with -replay %s)\n", witnessOut, witnessOut)
		}
	}
	return nil
}
