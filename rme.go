package tradingfences

import (
	"context"
	"strings"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/rme"
	"tradingfences/internal/run"
)

// PassageStats reports per-recoverable-passage RMR accounting: how many
// passages (entry through exit of the instrumented workload, crash
// re-entries included) closed, and the worst and total remote-memory-
// reference counts per passage under the cache-coherent (CC) and
// distributed-shared-memory (DSM) rules. The maxima are the measured
// quantity the Chan–Woelfel Ω(log n / log log n) RME lower bound speaks
// about.
type PassageStats = machine.PassageStats

// RMELocks returns the names of the recoverable locks available to
// CheckRMECtx, sorted: "rbakery", "rtas", "rtas-unsafe" (a deliberately
// broken negative control), "rtournament".
func RMELocks() []string { return rme.Names() }

// IsRMELock reports whether name is a registered recoverable lock (with
// or without the "rme:" prefix used in witness artifacts).
func IsRMELock(name string) bool {
	_, ok := rme.Locks[strings.TrimPrefix(name, "rme:")]
	return ok
}

// ChanWoelfelBound evaluates the Chan–Woelfel RME lower bound
// log n / log log n at n (reported as 1 for degenerate n <= 2), the
// reference curve the measured per-passage maxima are tabulated against.
func ChanWoelfelBound(n int) float64 { return rme.ChanWoelfelBound(n) }

// CheckRMECtx model-checks recoverable mutual exclusion: the named
// recoverable lock run by n processes for `passages` recoverable passages
// each under the given memory model, with the checker's adversary
// injecting up to opts.Faults.MaxCrashes crash-and-recover events at
// points of its choosing. A crashed process re-enters the lock's recovery
// section with only its durable state and then resumes its passage loop —
// the Golab–Ramaraju crash-restart model — so a Proved verdict certifies
// exclusivity across every interleaving of crashes and recoveries within
// the budget.
//
// The verdict additionally reports Passages: the most remote memory
// references any recoverable passage paid under the CC and DSM rules,
// over every passage the exploration closed (crash re-entries charge the
// passage they interrupted). They are certified lower bounds on the
// worst case, proved verdicts included: a path pruned at a visited state
// drops its costs. Budget handling, degradation and
// witness packaging are as in CheckMutexCtx; witness artifacts carry the
// lock name as "rme:<name>" and replay through ReplayWitness.
func CheckRMECtx(ctx context.Context, name string, n, passages int, model MemoryModel, opts CheckOptions) (v *MutexVerdict, err error) {
	defer run.Recover("check rme", &err)
	subject, err := newRMESubject(name, n, passages)
	if err != nil {
		return nil, err
	}
	return checkSubject(ctx, subject, subject.Name, n, passages, model, opts,
		opts.checkOpts("rme", subject.Name, n, passages))
}

// newRMESubject builds the instrumented recoverable workload, accepting
// the bare lock name or the "rme:"-prefixed form recorded in witnesses.
func newRMESubject(name string, n, passages int) (*check.Subject, error) {
	return rme.NewSubject(strings.TrimPrefix(name, "rme:"), n, passages)
}
