package check

import (
	"fmt"
	"runtime"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// BenchmarkExhaustive measures full state-space exploration of the
// two-process Bakery subject under PSO (the heaviest cell of the
// separation matrix) through Exhaustive, the engine at one worker.
func BenchmarkExhaustive(b *testing.B) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(3_000_000))
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation || !res.Complete {
			b.Fatalf("unexpected result: %+v", res)
		}
	}
}

// BenchmarkExhaustiveParallel measures the work-stealing engine on the
// same subject at increasing worker counts (1, 2, NumCPU). Complete-run
// state counts are identical for every worker count; only wall time may
// differ. Recorded in BENCH_check.json at the repo root.
func BenchmarkExhaustiveParallel(b *testing.B) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, runtime.NumCPU()}
	if counts[2] <= 2 {
		counts = counts[:2]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := statesOpt(3_000_000)
				opts.Workers = workers
				res, err := s.ExhaustiveParallel(bg(), machine.PSO, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation || !res.Complete {
					b.Fatalf("unexpected result: %+v", res)
				}
			}
		})
	}
}

// BenchmarkProgress measures the full state-graph liveness analysis.
func BenchmarkProgress(b *testing.B) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(3_000_000))
		if err != nil {
			b.Fatal(err)
		}
		if !res.DeadlockFree || !res.WeakObstructionFree {
			b.Fatalf("unexpected result: %v", res)
		}
	}
}

// BenchmarkViolationSearch measures how quickly the exhaustive search hits
// the bakery-tso PSO violation (DFS finds it long before exhausting the
// space).
func BenchmarkViolationSearch(b *testing.B) {
	s, err := NewMutexSubject("bakery-tso", locks.NewBakeryTSO, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := s.Exhaustive(bg(), machine.PSO, statesOpt(3_000_000))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Violation {
			b.Fatal("violation not found")
		}
	}
}
