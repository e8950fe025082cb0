package check

import (
	"tradingfences/internal/lang"
	"tradingfences/internal/machine"
)

// Commit-step partial-order reduction (Opts.Reduction.POR) with ample
// sets. DESIGN.md §5j gives the full soundness story; the shape is:
//
// At a node where some process p has an empty write buffer and is poised
// at a process-local operation — a buffered write under TSO/PSO, a fence
// over the empty buffer, or a return — every enabled transition of p (its
// program step, plus its crash when budget remains) touches only
// p-private state: p's buffer, p's interpreter state, p's cache row, p's
// statistics. Those transitions are independent of every transition of
// every other process regardless of the future, so {⊥(p)} (∪ {crash(p)})
// is a persistent set and the node expands only it. Two guards keep the
// classical side conditions: the step must not move p into the critical
// section (invisibility — checked concretely on the stepped configuration
// rather than argued syntactically, so instrumented subjects with unusual
// probe placement stay safe), and no cycle of the reduced graph may
// consist of reduced nodes only (the cycle proviso). The proviso is
// static: a cycle of ample steps holds no crash (the crash count only
// grows), no return (halting is final) and no write (buffers only grow
// without commits), so it is fences, and every process in it goes round a
// loop whose body has no top-level read, write, TAS or return. A fence in
// a program with such a loop (lang.Program.FenceOnlyLoop) is never ample,
// so no such cycle exists, and a node's ample set does not depend on the
// visiting order.
// Reads are never ample: they observe shared memory.
//
// The reduction composes with adversarial crash budgets and the reorder
// bound; the randomized fallback never runs reduced.

// ampleCandidate returns the lowest process whose enabled transitions are
// all process-local — empty write buffer and poised at a buffered write
// (TSO/PSO), a fence outside any program with a fence-only loop, or a
// return — or -1 when no such process exists.
func (s *Subject) ampleCandidate(c *machine.Config, model machine.Model) (int, error) {
	for p := 0; p < c.N(); p++ {
		if c.Halted(p) || c.BufferLen(p) != 0 {
			continue
		}
		op, ok, err := c.NextOp(p)
		if err != nil {
			return -1, err
		}
		if !ok {
			continue
		}
		switch op.Kind {
		case lang.OpWrite:
			if model != machine.SC {
				return p, nil
			}
		case lang.OpFence:
			if !c.Proc(p).Program().FenceOnlyLoop() {
				return p, nil
			}
		case lang.OpReturn:
			return p, nil
		}
	}
	return -1, nil
}
