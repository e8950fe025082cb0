package check

import (
	"fmt"
	"runtime"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// BenchmarkStateThroughput measures raw explorer throughput (states
// interned per second) and per-state allocation on the two configurations
// recorded in BENCH_check.json: the full bakery n=3 proof under PSO
// (~78k states, plus the same proof under partial-order reduction at
// ~30k) and the first 150k states of GT_2 n=4 under PSO (the
// state budget trips at exactly MaxStates interned states at any worker
// count — over-cap internings are rolled back — so the truncated rows
// stay comparable). The work-stealing engine is measured at workers=1
// (which is Exhaustive) and workers=NumCPU. The POR rows visit the same
// ~30k states at every worker count: the cycle proviso is static (see
// ExhaustiveParallel's doc).
//
// bytes/state for BENCH_check.json is B/op divided by the reported
// states/op metric; the peak visited-set size equals the state count
// (the visited set only grows).
func BenchmarkStateThroughput(b *testing.B) {
	gt2 := func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
		return locks.NewGT(l, nm, n, 2)
	}
	cases := []struct {
		name      string
		ctor      locks.Constructor
		n         int
		maxStates int
		complete  bool
		reduction Reduction
	}{
		{"bakery-n3", locks.NewBakery, 3, 3_000_000, true, Reduction{}},
		// The same proof under commit-step partial-order reduction: the
		// verdict is identical (pinned by TestPORVerdictParity), the
		// visited set shrinks — the states/op ratio against the row above
		// is the reduction factor the CI floor guards.
		{"bakery-n3-por", locks.NewBakery, 3, 3_000_000, true, Reduction{POR: true}},
		{"gt2-n4", gt2, 4, 150_000, false, Reduction{}},
	}
	for _, c := range cases {
		s, err := NewMutexSubject(c.name, c.ctor, c.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		opts := Opts{Budget: run.Budget{MaxStates: c.maxStates}, Reduction: c.reduction}
		verify := func(b *testing.B, res Result, err error) int {
			b.Helper()
			if c.complete {
				if err != nil || res.Violation || !res.Complete {
					b.Fatalf("unexpected result: %+v err=%v", res, err)
				}
			} else {
				if !run.IsLimit(err) || res.Violation {
					b.Fatalf("expected a budget trip without violation: %+v err=%v", res, err)
				}
				if res.States != c.maxStates {
					b.Fatalf("nondeterministic truncation: %d states, want %d", res.States, c.maxStates)
				}
			}
			return res.States
		}
		counts := []int{1}
		if runtime.NumCPU() > 1 {
			counts = append(counts, runtime.NumCPU())
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				popts := opts
				popts.Workers = workers
				states := 0
				for i := 0; i < b.N; i++ {
					res, err := s.ExhaustiveParallel(bg(), machine.PSO, popts)
					states = verify(b, res, err)
				}
				reportStates(b, states)
			})
		}
	}
}

// reportStates derives the throughput metrics from the wall time the
// harness already measured.
func reportStates(b *testing.B, states int) {
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}
