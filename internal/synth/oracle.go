package synth

import (
	"context"
	"errors"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
	"tradingfences/internal/supervise"
)

// Verdict is one oracle answer about one placement.
type Verdict struct {
	// Proved: mutual exclusion holds for the subject's bounded workload
	// (the exploration was complete). Violated: a violating schedule was
	// found. Neither set means the oracle ran out of budget undecided.
	Proved   bool
	Violated bool
	// Witness is the violating schedule when Violated.
	Witness machine.Schedule
	// States is the number of states (or random steps) the oracle spent.
	States int
	// Degraded marks a verdict from the supervisor's randomized fallback
	// rather than a completed exhaustive exploration. A degraded Violated
	// is still a genuine refutation (the witness replays); a degraded
	// non-violation is NOT a proof and reports neither flag set.
	Degraded bool
}

// Oracle decides one placement's subject under one model. Implementations
// must distinguish running out of budget (undecided Verdict, nil error —
// the engine degrades explicitly) from cancellation and genuine failures
// (returned as errors, aborting the search).
type Oracle func(ctx context.Context, subject *check.Subject, model machine.Model) (Verdict, error)

// ExhaustiveOracle decides placements with the sequential exhaustive
// checker under the given per-call options (budget, reductions).
// Complete, deterministic, and the cheapest choice at n=2 where state
// spaces are tiny. The checker explores with in-place step/revert (an undo
// trail instead of a clone per edge), so sweeping hundreds of placements
// through this oracle pays no per-edge configuration copies.
func ExhaustiveOracle(opts check.Opts) Oracle {
	return func(ctx context.Context, subject *check.Subject, model machine.Model) (Verdict, error) {
		res, err := subject.Exhaustive(ctx, model, opts)
		return verdictFrom(res, res.States, err)
	}
}

// SupervisedOracle decides placements with the supervised parallel
// checker: retry ladder, checkpointing and randomized fallback as
// configured. A degraded outcome that found no violation is reported as
// undecided (Degraded set), never as a proof.
func SupervisedOracle(opts supervise.Options) Oracle {
	return func(ctx context.Context, subject *check.Subject, model machine.Model) (Verdict, error) {
		out, err := supervise.CheckMutex(ctx, subject, model, opts)
		if err != nil {
			var ve Verdict
			if out != nil {
				ve.States = out.Result.States
			}
			if isBudget(err) {
				return ve, nil
			}
			return ve, err
		}
		if out.Mode == supervise.ModeDegraded {
			v := Verdict{Degraded: true, States: out.Result.States + out.Fallback.States}
			if out.Fallback.Violation {
				v.Violated = true
				v.Witness = out.Fallback.Witness
			}
			return v, nil
		}
		return verdictFrom(out.Result, out.Result.States, nil)
	}
}

// verdictFrom maps a checker result (and its possible budget error) to an
// oracle verdict. Budget trips become undecided verdicts; everything else
// propagates.
func verdictFrom(res check.Result, states int, err error) (Verdict, error) {
	v := Verdict{States: states}
	if res.Violation {
		v.Violated = true
		v.Witness = res.Witness
		return v, nil
	}
	if err != nil {
		if isBudget(err) {
			return v, nil
		}
		return v, err
	}
	// A completion under reorder-bounded semantics is a bounded
	// certificate, not a proof: the bounded graph under-approximates the
	// full one, so a placement it clears could still violate. The engine
	// treats such verdicts as undecided — a bounded oracle can refute
	// (every violation is genuine and replays under full semantics) but
	// never admit a placement into the safe frontier.
	if res.Complete && res.ReorderBound == 0 {
		v.Proved = true
	}
	return v, nil
}

// isBudget reports whether err is a resource-budget trip (as opposed to
// cancellation or a genuine failure). run.IsLimit also matches context
// errors, so the match must be on the structured type.
func isBudget(err error) bool {
	var be *run.BudgetError
	return errors.As(err, &be) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
