package check_test

import (
	"context"
	"testing"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/rme"
	"tradingfences/internal/run"
)

// BenchmarkRMEThroughput measures explorer throughput on the recoverable
// workload recorded in BENCH_check.json: the full rtas n=3 proof under SC
// with a one-crash adversarial budget (the E14 configuration, ~70k
// states). Recovery frames, durable-local bookkeeping and per-passage RMR
// accounting ride every step here, so this row prices the RME
// instrumentation against the plain-lock rows measured by
// BenchmarkStateThroughput. It lives in an external test package because
// internal/rme imports internal/check.
func BenchmarkRMEThroughput(b *testing.B) {
	s, err := rme.NewSubject("rtas", 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := check.Opts{
		Budget: run.Budget{MaxStates: 3_000_000},
		Faults: &machine.FaultPlan{MaxCrashes: 1},
	}
	verify := func(b *testing.B, res check.Result, err error) int {
		b.Helper()
		if err != nil || res.Violation || !res.Complete {
			b.Fatalf("unexpected result: %+v err=%v", res, err)
		}
		if res.Passages == nil || res.Passages.Count == 0 {
			b.Fatal("no passage accounting on the benchmark run")
		}
		return res.States
	}
	b.Run("rtas-n3-crash1/workers=1", func(b *testing.B) {
		b.ReportAllocs()
		states := 0
		for i := 0; i < b.N; i++ {
			res, err := s.Exhaustive(context.Background(), machine.SC, opts)
			states = verify(b, res, err)
		}
		b.ReportMetric(float64(states), "states/op")
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	})
}
