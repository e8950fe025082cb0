// Command synth runs the fence-placement synthesizer: it strips a lock's
// fences, searches the placement lattice for all minimal safe placements
// under a memory model, and prints the resulting fences↔RMRs Pareto
// frontier with the refuted placements and their witnesses.
//
// Usage:
//
//	synth -lock peterson -n 2 -model pso
//	synth -lock bakery -n 2 -model pso -json
//	synth -lock peterson -n 2 -model pso -witness-dir out/ -assert-minimal 0,1
//
// Budget trips degrade to an explicit partial-frontier verdict; the exit
// status is nonzero only for hard errors (or a failed -assert-minimal).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tradingfences"
)

func main() {
	lock := flag.String("lock", "peterson", "base lock to synthesize placements for (bakery, peterson, gtF, ...)")
	n := flag.Int("n", 2, "process count")
	model := flag.String("model", "pso", "memory model: sc, tso, pso")
	passages := flag.Int("passages", 1, "lock passages per process in the checked workload")
	states := flag.Int("states", 0, "per-oracle-call state budget (0 = unlimited)")
	memMB := flag.Int("mem-mb", 0, "per-oracle-call visited-set memory budget in MiB (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the whole synthesis (0 = none)")
	oracle := flag.String("oracle", "exhaustive", "safety oracle: exhaustive or supervised")
	workers := flag.Int("workers", 0, "worker pool for the supervised oracle")
	maxOracle := flag.Int("max-oracle", 0, "cap on oracle calls (0 = unlimited); exceeding it leaves the frontier explicitly partial")
	seed := flag.Int64("seed", 1, "seed for the supervised oracle's randomized fallback")
	por := flag.Bool("por", false, "enable commit-step partial-order reduction in the safety oracle (verdict-preserving: the frontier is unchanged, found with fewer states)")
	reorderBound := flag.Int("reorder-bound", 0, "reorder-bounded oracle semantics (0 = full): refutations stay genuine but violation-free completions become undecided, so expect a partial frontier")
	witnessDir := flag.String("witness-dir", "", "directory for refutation witness artifacts (created if missing)")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	assertMinimal := flag.String("assert-minimal", "", "comma-separated site list (or 'none') that must appear among the minimal placements; exit 1 otherwise")
	benchOut := flag.String("bench-out", "", "write a one-entry benchmark record (wall time, oracle calls/states) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
	flag.Parse()

	// The CPU profile is stopped and closed explicitly (not deferred):
	// the error path exits with os.Exit, which would skip defers and
	// truncate the profile.
	var cpuf *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synth:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "synth:", err)
			os.Exit(1)
		}
		cpuf = f
	}
	err := run(*lock, *n, *model, *passages, *states, *memMB, *timeout, *oracle,
		*workers, *maxOracle, *seed, *por, *reorderBound, *witnessDir, *jsonOut, *assertMinimal, *benchOut)
	if cpuf != nil {
		pprof.StopCPUProfile()
		cpuf.Close()
	}
	if *memprofile != "" {
		writeHeapProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap to path after a GC, so the profile
// reflects retained memory rather than garbage awaiting collection.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
	}
}

func run(lock string, n int, model string, passages, states, memMB int, timeout time.Duration,
	oracle string, workers, maxOracle int, seed int64, por bool, reorderBound int,
	witnessDir string, jsonOut bool, assertMinimal, benchOut string) error {
	spec, err := tradingfences.ParseLockSpec(lock)
	if err != nil {
		return err
	}
	mm, err := tradingfences.ParseMemoryModel(model)
	if err != nil {
		return err
	}
	opts := tradingfences.SynthOptions{
		Passages:       passages,
		Budget:         tradingfences.Budget{MaxStates: states, MaxMemEstimate: int64(memMB) << 20},
		Workers:        workers,
		Seed:           seed,
		MaxOracleCalls: maxOracle,
		POR:            por,
		ReorderBound:   reorderBound,
		WitnessDir:     witnessDir,
	}
	switch oracle {
	case "exhaustive":
		opts.Oracle = tradingfences.OracleExhaustive
	case "supervised":
		opts.Oracle = tradingfences.OracleSupervised
	default:
		return fmt.Errorf("unknown oracle %q (want exhaustive or supervised)", oracle)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := time.Now()
	res, serr := tradingfences.SynthesizeFences(ctx, spec, n, mm, opts)
	wall := time.Since(start)
	if res == nil {
		return serr
	}
	if serr != nil {
		// A cancelled/limited run still carries an explicit partial
		// verdict — report it, then the error.
		fmt.Fprintf(os.Stderr, "synth: %s\n", res.Verdict)
	}

	if jsonOut {
		if err := printJSON(res, wall); err != nil {
			return err
		}
	} else {
		printText(res, wall)
	}
	if benchOut != "" {
		if err := writeBench(benchOut, res, wall); err != nil {
			return err
		}
	}
	if serr != nil {
		return serr
	}
	if assertMinimal != "" {
		if err := assertFound(res, assertMinimal); err != nil {
			return err
		}
	}
	return nil
}

func parseSiteList(s string) ([]int, error) {
	if s == "none" || s == "" {
		return []int{}, nil
	}
	var sites []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad site %q in %q", part, s)
		}
		sites = append(sites, id)
	}
	sort.Ints(sites)
	return sites, nil
}

func sameSites(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func assertFound(res *tradingfences.SynthResult, want string) error {
	sites, err := parseSiteList(want)
	if err != nil {
		return err
	}
	for _, m := range res.Minimal {
		if sameSites(m.Sites, sites) {
			return nil
		}
	}
	return fmt.Errorf("assert-minimal: placement {%s} not among the %d minimal placements", want, len(res.Minimal))
}

func printText(res *tradingfences.SynthResult, wall time.Duration) {
	fmt.Printf("synthesis: %s, n=%d, %s, %d passage(s)\n", res.Lock, res.N, res.Model, res.Passages)
	fmt.Printf("candidate sites (%d):\n", len(res.Sites))
	for _, s := range res.Sites {
		fmt.Printf("  %2d  %-8s %s\n", s.ID, s.Frag, s.Desc)
	}
	fmt.Printf("lattice: %d placements | oracle: %d calls, %d states | pruned: %d | dominated: %d\n",
		res.Candidates, res.OracleCalls, res.OracleStates, prunedCount(res), res.Dominated)
	fmt.Printf("verdict: %s (%.0f ms)\n", res.Verdict, float64(wall.Microseconds())/1000)
	if len(res.Minimal) > 0 {
		fmt.Println("minimal safe placements:")
		for _, m := range res.Minimal {
			mark := " "
			if onFrontier(res, m) {
				mark = "*"
			}
			cert := ""
			if !m.Certain {
				cert = "  (uncertified)"
			}
			fmt.Printf("  %s %-24s fences=%d rmrs=%d lhs=%.2f%s\n", mark, m.Lock, m.Fences, m.RMRs, m.LHS, cert)
		}
		fmt.Println("(* = on the fences/RMRs Pareto frontier)")
	}
	if len(res.Refuted) > 0 {
		fmt.Printf("refuted placements (%d):\n", len(res.Refuted))
		for _, r := range res.Refuted {
			how := "oracle"
			if r.Pruned {
				how = fmt.Sprintf("witness from %v", r.Source)
				if r.ByMonotone {
					how += ", monotone"
				}
			}
			fmt.Printf("  %-24s %s\n", r.Lock, how)
		}
	}
}

func prunedCount(res *tradingfences.SynthResult) int {
	k := 0
	for _, r := range res.Refuted {
		if r.Pruned {
			k++
		}
	}
	return k
}

func onFrontier(res *tradingfences.SynthResult, m tradingfences.SynthPoint) bool {
	for _, f := range res.Frontier {
		if f.Lock == m.Lock {
			return true
		}
	}
	return false
}

// jsonResult flattens the result for machine consumption, embedding the
// wall time so one -json run is a complete record.
type jsonResult struct {
	Lock         string                          `json:"lock"`
	N            int                             `json:"n"`
	Passages     int                             `json:"passages"`
	Model        string                          `json:"model"`
	Sites        []tradingfences.SynthSite       `json:"sites"`
	Candidates   int                             `json:"candidates"`
	OracleCalls  int                             `json:"oracle_calls"`
	OracleStates int                             `json:"oracle_states"`
	Dominated    int                             `json:"dominated"`
	Unknown      int                             `json:"unknown"`
	Unchecked    int                             `json:"unchecked"`
	Complete     bool                            `json:"complete"`
	Verdict      string                          `json:"verdict"`
	WallMS       float64                         `json:"wall_ms"`
	Minimal      []tradingfences.SynthPoint      `json:"minimal"`
	Frontier     []tradingfences.SynthPoint      `json:"frontier"`
	Refuted      []tradingfences.SynthRefutation `json:"refuted"`
}

func printJSON(res *tradingfences.SynthResult, wall time.Duration) error {
	out := jsonResult{
		Lock:         res.Lock.String(),
		N:            res.N,
		Passages:     res.Passages,
		Model:        res.Model.String(),
		Sites:        res.Sites,
		Candidates:   res.Candidates,
		OracleCalls:  res.OracleCalls,
		OracleStates: res.OracleStates,
		Dominated:    res.Dominated,
		Unknown:      res.Unknown,
		Unchecked:    res.Unchecked,
		Complete:     res.Complete,
		Verdict:      res.Verdict,
		WallMS:       float64(wall.Microseconds()) / 1000,
		Minimal:      res.Minimal,
		Frontier:     res.Frontier,
		Refuted:      res.Refuted,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeBench(path string, res *tradingfences.SynthResult, wall time.Duration) error {
	rec := map[string]any{
		"lock":          res.Lock.String(),
		"n":             res.N,
		"model":         res.Model.String(),
		"wall_ms":       float64(wall.Microseconds()) / 1000,
		"oracle_calls":  res.OracleCalls,
		"oracle_states": res.OracleStates,
		"candidates":    res.Candidates,
		"complete":      res.Complete,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
