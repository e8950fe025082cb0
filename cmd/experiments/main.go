// Command experiments regenerates, in one run, the measured side of every
// table in EXPERIMENTS.md: the Table 1 census (T1), the GT_f structure
// (F1), the Section 3 complexity claims (E1, E2), the tradeoff sweep and
// product (E3, E5), the lower-bound encoding (E4), the separation,
// liveness and FCFS matrices (E6, E8, E12), the ordering objects (E7), the
// accounting comparison (E9), amortization (E10), contention (E11), the
// fence-placement synthesis frontier (E13) and the recoverable-mutex
// passage costs against the Chan–Woelfel lower bound (E14).
//
// Output is markdown by default (so the results file can be refreshed
// directly) or JSON with -json (for downstream tooling).
//
// Usage:
//
//	experiments [-quick] [-json] [-only E3,E4] [-timeout 5m] [-workers 4]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tradingfences"
)

// table is one experiment's result set, renderable as markdown or JSON.
type table struct {
	Note    string   `json:"note,omitempty"`
	Headers []string `json:"headers"`
	Rows    [][]any  `json:"rows"`
}

func (t *table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

func (t *table) markdown() string {
	var b strings.Builder
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			switch v := c.(type) {
			case float64:
				cells[i] = fmt.Sprintf("%.2f", v)
			default:
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	return b.String()
}

type experiment struct {
	id   string
	name string
	run  func(ctx context.Context, quick bool) (*table, error)
}

// workers is the -workers flag: exhaustive checks (E6's matrix) fan their
// frontier over this many goroutines when > 0.
var workers int

func main() {
	quick := flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of markdown")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	flag.IntVar(&workers, "workers", 0, "worker goroutines for exhaustive model checking (0 = one; verdicts are identical either way)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	all := []experiment{
		{"T1", "Table 1 command census", runT1},
		{"F1", "Figure 1 GT_f structure", runF1},
		{"E1", "Bakery complexity", runE1},
		{"E2", "Tournament complexity", runE2},
		{"E3", "GT_f tradeoff sweep (Equation 2)", runE3},
		{"E4", "Lower-bound encoding (Theorem 4.2)", runE4},
		{"E5", "Tradeoff product (Equation 1)", runE5},
		{"E6", "Memory-model separation", runE6},
		{"E7", "Ordering objects", runE7},
		{"E8", "Liveness", runE8},
		{"E9", "RMR accountings", runE9},
		{"E10", "Repeated-passage amortization", runE10},
		{"E11", "Contention", runE11},
		{"E12", "FCFS fairness", runE12},
		{"E13", "Fence-placement synthesis frontier", runE13},
		{"E14", "Recoverable mutual exclusion (RME) passage costs", runE14},
		{"E15", "Certified state-space reduction (POR + reorder bounds)", runE15},
	}

	results := make(map[string]*table)
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		tbl, err := e.run(ctx, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		if *asJSON {
			results[e.id] = tbl
			continue
		}
		fmt.Printf("## %s — %s\n\n%s\n", e.id, e.name, tbl.markdown())
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func pick(quick bool, small, full int) int {
	if quick {
		return small
	}
	return full
}

func runT1(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 8, 16)
	t := &table{
		Note:    fmt.Sprintf("Count objects, n = %d, random π", n),
		Headers: []string{"object", "proceed", "commit", "wait-hidden-commit", "wait-read-finish", "wait-local-finish"},
	}
	for _, spec := range []tradingfences.LockSpec{{Kind: tradingfences.Bakery}, {Kind: tradingfences.Tournament}} {
		rep, err := tradingfences.EncodePermutationCtx(ctx, spec, tradingfences.Count, tradingfences.RandomPerm(n, 1), tradingfences.Budget{})
		if err != nil {
			return nil, err
		}
		c := rep.Census
		t.add("Count over "+spec.String(), c.Proceed, c.Commit, c.WaitHiddenCommit, c.WaitReadFinish, c.WaitLocalFinish)
	}
	return t, nil
}

func runF1(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 16, 64)
	t := &table{
		Note:    fmt.Sprintf("n = %d", n),
		Headers: []string{"f", "branching", "nodes per level"},
	}
	for f := 1; f <= 4; f++ {
		sh := tradingfences.ShapeGT(n, f)
		t.add(f, sh.Branching, fmt.Sprint(sh.NodesPerLevel))
	}
	return t, nil
}

func sweepRows(spec tradingfences.LockSpec, ns []int) (*table, error) {
	t := &table{Headers: []string{"n", "fences/passage", "RMRs/passage"}}
	for _, n := range ns {
		pt, err := tradingfences.MeasureLock(spec, n)
		if err != nil {
			return nil, err
		}
		t.add(n, pt.Fences, pt.RMRs)
	}
	return t, nil
}

func complexityNs(quick bool) []int {
	if quick {
		return []int{4, 16}
	}
	return []int{4, 16, 64, 256}
}

func runE1(ctx context.Context, quick bool) (*table, error) {
	return sweepRows(tradingfences.LockSpec{Kind: tradingfences.Bakery}, complexityNs(quick))
}

func runE2(ctx context.Context, quick bool) (*table, error) {
	return sweepRows(tradingfences.LockSpec{Kind: tradingfences.Tournament}, complexityNs(quick))
}

func runE3(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 64, 256)
	pts, err := tradingfences.TradeoffSweepCtx(ctx, n)
	if err != nil {
		return nil, err
	}
	t := &table{
		Note:    fmt.Sprintf("n = %d", n),
		Headers: []string{"f", "fences", "RMRs", "f·n^(1/f)", "RMRs/budget"},
	}
	for _, pt := range pts {
		t.add(pt.Lock.F, pt.Fences, pt.RMRs, pt.RMRBound, float64(pt.RMRs)/pt.RMRBound)
	}
	return t, nil
}

func runE4(ctx context.Context, quick bool) (*table, error) {
	type cfg struct {
		spec tradingfences.LockSpec
		n    int
	}
	cfgs := []cfg{
		{tradingfences.LockSpec{Kind: tradingfences.Bakery}, 16},
		{tradingfences.LockSpec{Kind: tradingfences.Bakery}, 32},
		{tradingfences.LockSpec{Kind: tradingfences.GT, F: 2}, 32},
	}
	if quick {
		cfgs = cfgs[:1]
	}
	t := &table{Headers: []string{"lock", "n", "β", "ρ", "bits/lg(n!)", "β(lg(ρ/β)+1)/lg(n!)"}}
	for _, c := range cfgs {
		rep, err := tradingfences.EncodePermutationCtx(ctx, c.spec, tradingfences.Count, tradingfences.RandomPerm(c.n, 7), tradingfences.Budget{})
		if err != nil {
			return nil, err
		}
		t.add(c.spec.String(), c.n, rep.Fences, rep.RMRs,
			float64(rep.BitLen)/rep.InfoContent, rep.TheoremLHS/rep.InfoContent)
	}
	return t, nil
}

func runE5(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 64, 256)
	t := &table{
		Note:    fmt.Sprintf("n = %d", n),
		Headers: []string{"lock", "f·(lg(r/f)+1)/lg n"},
	}
	for _, spec := range []tradingfences.LockSpec{
		{Kind: tradingfences.Bakery},
		{Kind: tradingfences.GT, F: 2},
		{Kind: tradingfences.GT, F: 4},
		{Kind: tradingfences.Tournament},
		{Kind: tradingfences.Filter},
	} {
		pt, err := tradingfences.MeasureLock(spec, n)
		if err != nil {
			return nil, err
		}
		t.add(spec.String(), pt.Normalized)
	}
	return t, nil
}

func runE6(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 1_000_000, 3_000_000)
	rows, err := tradingfences.SeparationMatrixCtx(ctx, tradingfences.CheckOptions{
		Budget:  tradingfences.Budget{MaxStates: states},
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	t := &table{Headers: []string{"lock", "fences", "SC", "TSO", "PSO"}}
	cell := func(v *tradingfences.MutexVerdict) string {
		switch {
		case v.Violated:
			return "violated"
		case v.Proved:
			return fmt.Sprintf("proved (%d st)", v.States)
		default:
			return "inconclusive"
		}
	}
	for _, row := range rows {
		t.add(row.Lock.String(), row.Fences,
			cell(row.Verdicts[tradingfences.SC]),
			cell(row.Verdicts[tradingfences.TSO]),
			cell(row.Verdicts[tradingfences.PSO]))
	}
	return t, nil
}

func runE7(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 8, 12)
	t := &table{Headers: []string{"object", "fences/proc", "RMRs/proc", "round trip"}}
	for _, obj := range []tradingfences.ObjectKind{tradingfences.Count, tradingfences.FetchAndIncrement, tradingfences.QueueEnqueue} {
		pi := tradingfences.RandomPerm(n, 3)
		spec := tradingfences.LockSpec{Kind: tradingfences.Bakery}
		rep, err := tradingfences.EncodePermutationCtx(ctx, spec, obj, pi, tradingfences.Budget{})
		if err != nil {
			return nil, err
		}
		back, err := tradingfences.RecoverPermutationFromCode(spec, obj, n, rep.Code, rep.BitLen)
		if err != nil {
			return nil, err
		}
		ok := "ok"
		for i := range pi {
			if back[i] != pi[i] {
				ok = "MISMATCH"
			}
		}
		t.add(obj.String(), float64(rep.Fences)/float64(n), float64(rep.RMRs)/float64(n), ok)
	}
	return t, nil
}

func runE8(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 1_000_000, 3_000_000)
	t := &table{Headers: []string{"lock", "states", "deadlock-free", "weakly obstruction-free"}}
	for _, spec := range []tradingfences.LockSpec{
		{Kind: tradingfences.Peterson},
		{Kind: tradingfences.Bakery},
		{Kind: tradingfences.Tournament},
		{Kind: tradingfences.DeadlockDemo},
		{Kind: tradingfences.RendezvousDemo},
	} {
		v, err := tradingfences.CheckLivenessCtx(ctx, spec, 2, 1, tradingfences.PSO,
			tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: states}})
		if err != nil {
			return nil, err
		}
		t.add(spec.String(), v.States, v.DeadlockFree, v.WeakObstructionFree)
	}
	return t, nil
}

func runE9(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 16, 64)
	t := &table{
		Note:    fmt.Sprintf("n = %d, RMRs per passage", n),
		Headers: []string{"lock", "combined", "DSM", "CC"},
	}
	for _, spec := range []tradingfences.LockSpec{{Kind: tradingfences.Bakery}, {Kind: tradingfences.Tournament}} {
		var rmrs [3]int64
		for i, acct := range tradingfences.RMRModels() {
			pt, err := tradingfences.MeasureLockIn(spec, n, acct)
			if err != nil {
				return nil, err
			}
			rmrs[i] = pt.RMRs
		}
		t.add(spec.String(), rmrs[0], rmrs[1], rmrs[2])
	}
	return t, nil
}

func runE10(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 16, 64)
	t := &table{
		Note:    fmt.Sprintf("n = %d, 8 passages per process", n),
		Headers: []string{"lock", "first RMRs", "amortized RMRs/passage", "fences/passage"},
	}
	for _, spec := range []tradingfences.LockSpec{{Kind: tradingfences.Bakery}, {Kind: tradingfences.Tournament}} {
		pt, err := tradingfences.MeasureLockRepeated(spec, n, 8, tradingfences.CombinedModel)
		if err != nil {
			return nil, err
		}
		t.add(spec.String(), pt.FirstRMRs, pt.AmortizedRMRs, pt.AmortizedFences)
	}
	return t, nil
}

func runE11(ctx context.Context, quick bool) (*table, error) {
	n := pick(quick, 8, 16)
	t := &table{
		Note:    fmt.Sprintf("n = %d, fair round-robin", n),
		Headers: []string{"lock", "solo RMRs", "contended RMRs"},
	}
	for _, spec := range []tradingfences.LockSpec{
		{Kind: tradingfences.Bakery},
		{Kind: tradingfences.GT, F: 2},
		{Kind: tradingfences.Tournament},
	} {
		pt, err := tradingfences.MeasureLockContended(spec, n)
		if err != nil {
			return nil, err
		}
		t.add(spec.String(), pt.SoloRMRs, pt.ContendedRMRs)
	}
	return t, nil
}

func runE12(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 2_000_000, 8_000_000)
	t := &table{Headers: []string{"lock", "n", "product states", "verdict"}}
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
			tradingfences.CheckOptions{Budget: tradingfences.Budget{MaxStates: states}})
		if err != nil {
			return nil, err
		}
		verdict := "FCFS proved"
		if v.Violated {
			verdict = fmt.Sprintf("violated (p%d overtook p%d)", v.Violator, v.Overtaken)
		}
		t.add(c.spec.String(), c.n, v.States, verdict)
	}
	return t, nil
}

// E13: fence-placement synthesis. Strip a lock's fences, recover all
// minimal safe placements per model, and compare the synthesized Pareto
// frontier against the hand-written GT_1 point at the same n. The models
// column reproduces the separation as a synthesis statement: the minimal
// placement grows as write ordering weakens.
func runE13(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 500_000, 2_000_000)
	t := &table{
		Note: "Synthesized minimal fence placements (exhaustive oracle; sites are " +
			"numbered per lock; `{}` = no fences needed). Each frontier point lists " +
			"the measured per-passage (fences, RMRs); `hand` is the hand-written " +
			"lock's own point for the same base algorithm.",
		Headers: []string{"lock", "n", "model", "minimal placements", "frontier (f, r)", "hand (f, r)", "oracle calls", "pruned", "verdict"},
	}
	cases := []struct {
		spec tradingfences.LockSpec
		n    int
	}{
		{tradingfences.LockSpec{Kind: tradingfences.Peterson}, 2},
		{tradingfences.LockSpec{Kind: tradingfences.Bakery}, 2},
	}
	for _, c := range cases {
		hand, err := tradingfences.MeasureLock(c.spec, c.n)
		if err != nil {
			return nil, err
		}
		for _, m := range tradingfences.Models() {
			res, err := tradingfences.SynthesizeFences(ctx, c.spec, c.n, m, tradingfences.SynthOptions{
				Oracle: tradingfences.OracleExhaustive,
				Budget: tradingfences.Budget{MaxStates: states},
			})
			if err != nil {
				return nil, err
			}
			var mins, front []string
			for _, p := range res.Minimal {
				mins = append(mins, fmt.Sprintf("{%s}", joinInts(p.Sites)))
			}
			for _, p := range res.Frontier {
				front = append(front, fmt.Sprintf("({%s}: %d, %d)", joinInts(p.Sites), p.Fences, p.RMRs))
			}
			pruned := 0
			for _, r := range res.Refuted {
				if r.Pruned {
					pruned++
				}
			}
			t.add(c.spec.String(), c.n, m.String(),
				strings.Join(mins, " "), strings.Join(front, " "),
				fmt.Sprintf("(%d, %d)", hand.Fences, hand.RMRs),
				res.OracleCalls, pruned, res.Verdict)
		}
	}
	return t, nil
}

// E14: recoverable mutual exclusion. Check each recoverable lock under a
// one-crash adversary and report the worst remote-memory-reference count
// any explored recoverable passage paid, under both the CC and DSM rules,
// against the Chan–Woelfel Ω(log n / log log n) reference. The maxima are
// watermarks over the explored spanning tree, so every cell is marked
// ">=": they are certified lower bounds (some passage really paid that
// much), not the worst case, even on a proved verdict. Passage counters
// are not part of the state key, so once a state is visited every later
// path into it is pruned with its costs (see internal/machine/passage.go),
// and the maxima follow the traversal order.
func runE14(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 200_000, 4_000_000)
	ns := []int{2, 3, 4}
	if quick {
		ns = []int{2, 3}
	}
	t := &table{
		Note: "Recoverable locks under an adversarial 1-crash budget (SC machine; " +
			"crashes re-enter the recovery section with durable locals). " +
			"max CC / max DSM are per-recoverable-passage watermarks over the " +
			"explored spanning tree, so every cell is a certified lower bound " +
			"(`>=`), proved rows included: passage costs are not part of the " +
			"state key, and a path pruned at a visited state drops its costs. " +
			"`lg n / lg lg n` is the Chan–Woelfel RME lower-bound reference.",
		Headers: []string{"lock", "n", "verdict", "states", "passages", "max CC", "max DSM", "lg n / lg lg n"},
	}
	for _, name := range []string{"rtas", "rbakery", "rtournament"} {
		for _, n := range ns {
			opts := tradingfences.CheckOptions{
				Budget:  tradingfences.Budget{MaxStates: states},
				Workers: workers,
				Faults:  &tradingfences.FaultPlan{MaxCrashes: 1},
			}
			v, err := tradingfences.CheckRMECtx(ctx, name, n, 1, tradingfences.SC, opts)
			if v == nil {
				return nil, err
			}
			verdict := "inconclusive"
			switch {
			case v.Violated:
				verdict = "VIOLATED"
			case v.Proved:
				verdict = "proved"
			}
			ps := v.Passages
			if ps == nil {
				ps = &tradingfences.PassageStats{}
			}
			t.add(name, n, verdict, v.States, ps.Count,
				fmt.Sprintf(">=%d", ps.MaxCC), fmt.Sprintf(">=%d", ps.MaxDSM),
				tradingfences.ChanWoelfelBound(n))
		}
	}
	return t, nil
}

// E15: certified state-space reduction. Re-check a buffered-model slice
// of the suite under commit-step partial-order reduction and under a
// k=1 reorder bound, cross-checking in-process that POR preserves the
// full verdict and that a bounded run never claims a proof and never
// reports a violation the full semantics lacks. The multi-minute
// budget-trip rows (bakery/gt2 n=4 proved under budgets the full
// explorer trips) are lockstat runs recorded in BENCH_check.json's
// reduction section, not re-run here.
func runE15(ctx context.Context, quick bool) (*table, error) {
	states := pick(quick, 300_000, 1_000_000)
	t := &table{
		Note: "Full semantics vs commit-step POR (verdict-preserving) and vs a " +
			"k=1 reorder bound (under-approximate: violations are genuine, " +
			"violation-free completions are bounded certificates, never proofs). " +
			"`states` is the visited count on complete runs and the " +
			"states-to-witness on VIOLATED rows; `vs full` compares the two. " +
			"POR expands ample sets under a static cycle proviso (decided from " +
			"the program), so reduced counts are the same at every -workers value. " +
			"The n >= 4 budget-trip rows live in " +
			"BENCH_check.json's reduction section.",
		Headers: []string{"lock", "n", "model", "mode", "verdict", "states", "vs full"},
	}
	runOne := func(spec tradingfences.LockSpec, n int, model tradingfences.MemoryModel, por bool, bound int) (*tradingfences.MutexVerdict, error) {
		opts := tradingfences.CheckOptions{
			Budget:       tradingfences.Budget{MaxStates: states},
			Workers:      workers,
			POR:          por,
			ReorderBound: bound,
		}
		return tradingfences.CheckMutexCtx(ctx, spec, n, 1, model, opts)
	}
	verdict := func(v *tradingfences.MutexVerdict) string {
		switch {
		case v.Violated:
			return "VIOLATED"
		case v.Coverage.BoundedComplete:
			return fmt.Sprintf("BOUNDED-COMPLETE(k=%d)", v.Coverage.ReorderBound)
		case v.Proved:
			return "proved"
		}
		return "inconclusive"
	}
	cases := []struct {
		spec  tradingfences.LockSpec
		n     int
		model tradingfences.MemoryModel
		por   bool
		bound int
	}{
		{tradingfences.LockSpec{Kind: tradingfences.Bakery}, 3, tradingfences.PSO, true, 0},
		{tradingfences.LockSpec{Kind: tradingfences.GT, F: 2}, 3, tradingfences.PSO, true, 0},
		{tradingfences.LockSpec{Kind: tradingfences.PetersonNoFence}, 2, tradingfences.PSO, false, 1},
		{tradingfences.LockSpec{Kind: tradingfences.BakeryNoFence}, 2, tradingfences.TSO, false, 1},
	}
	for _, c := range cases {
		full, err := runOne(c.spec, c.n, c.model, false, 0)
		if err != nil {
			return nil, err
		}
		red, err := runOne(c.spec, c.n, c.model, c.por, c.bound)
		if err != nil {
			return nil, err
		}
		mode := "POR"
		if c.bound > 0 {
			mode = fmt.Sprintf("k=%d", c.bound)
		}
		if c.por && (red.Violated != full.Violated || red.Proved != full.Proved) {
			return nil, fmt.Errorf("E15: POR verdict diverged from full on %s n=%d %s", c.spec, c.n, c.model)
		}
		if c.bound > 0 && red.Violated && !full.Violated {
			return nil, fmt.Errorf("E15: bounded run found a violation the full semantics lacks on %s n=%d %s", c.spec, c.n, c.model)
		}
		if c.bound > 0 && red.Proved {
			return nil, fmt.Errorf("E15: bounded run claimed a full proof on %s n=%d %s", c.spec, c.n, c.model)
		}
		ratio := "-"
		if red.States > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(full.States)/float64(red.States))
		}
		t.add(c.spec.String(), c.n, c.model.String(), "full", verdict(full), full.States, "-")
		t.add(c.spec.String(), c.n, c.model.String(), mode, verdict(red), red.States, ratio)
	}
	return t, nil
}

func joinInts(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ",")
}
