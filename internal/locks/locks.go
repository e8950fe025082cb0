// Package locks implements the paper's lock algorithms as programs in the
// process language: Lamport's Bakery lock (Algorithm 1), a two-process
// Peterson lock, the binary tournament-tree lock, and the paper's
// generalized tournament family GT_f (Section 3) realizing every point of
// the fence/RMR tradeoff. Deliberately under- or mis-fenced variants are
// provided as negative controls for the memory-model separation
// experiments.
package locks

import (
	"fmt"

	"tradingfences/internal/lang"
	"tradingfences/internal/machine"
)

// Algorithm is an instantiated lock: statement fragments implementing
// Acquire and Release over registers the constructor allocated from a
// layout. Fragments are immutable ASTs and may be freely shared between
// program compositions.
type Algorithm struct {
	name    string
	n       int
	acquire []lang.Stmt
	release []lang.Stmt

	// doorwaySplit, when > 0, splits acquire into a bounded (wait-free)
	// doorway prefix acquire[:doorwaySplit] and a waiting remainder —
	// the structure first-come-first-served fairness is defined against
	// (Lamport: if p completes its doorway before q enters its doorway,
	// then q does not enter the critical section before p).
	doorwaySplit int

	// recovery, when non-empty, makes the lock recoverable (the RME
	// model): a crashed process re-enters here before resuming its
	// passage loop, and the locals named in durable survive the crash.
	// See internal/rme and DESIGN.md §5h.
	recovery []lang.Stmt
	durable  []string
}

// HasDoorway reports whether the lock declares a wait-free doorway.
func (a *Algorithm) HasDoorway() bool { return a.doorwaySplit > 0 }

// Doorway returns the wait-free doorway prefix of Acquire (nil when the
// lock declares none).
func (a *Algorithm) Doorway() []lang.Stmt {
	if !a.HasDoorway() {
		return nil
	}
	return a.acquire[:a.doorwaySplit]
}

// Waiting returns the remainder of Acquire after the doorway (the full
// Acquire when no doorway is declared).
func (a *Algorithm) Waiting() []lang.Stmt {
	if !a.HasDoorway() {
		return a.acquire
	}
	return a.acquire[a.doorwaySplit:]
}

// Name identifies the lock instance.
func (a *Algorithm) Name() string { return a.name }

// N returns the number of processes the lock was instantiated for.
func (a *Algorithm) N() int { return a.n }

// Acquire returns the lock-acquisition statement fragment.
func (a *Algorithm) Acquire() []lang.Stmt { return a.acquire }

// Release returns the lock-release statement fragment.
func (a *Algorithm) Release() []lang.Stmt { return a.release }

// Recoverable reports whether the lock declares a recovery fragment.
func (a *Algorithm) Recoverable() bool { return len(a.recovery) > 0 }

// Recovery returns the crash-recovery statement fragment (nil for
// non-recoverable locks).
func (a *Algorithm) Recovery() []lang.Stmt { return a.recovery }

// Durable returns the names of the locals that survive a crash (the
// process's non-volatile private memory).
func (a *Algorithm) Durable() []string { return a.durable }

// WithRecovery declares a crash-recovery fragment and the durable locals
// it relies on, making the lock recoverable, and returns the algorithm.
func (a *Algorithm) WithRecovery(recovery []lang.Stmt, durable ...string) *Algorithm {
	a.recovery = recovery
	a.durable = durable
	return a
}

// Constructor builds a lock instance for n processes, allocating its
// registers from lay under the given instance name. All lock constructors
// in this package have this shape, which lets the experiment harness sweep
// over lock families generically.
type Constructor func(lay *machine.Layout, name string, n int) (*Algorithm, error)

// bakeryFences selects the fence placement of a Bakery instance.
type bakeryFences int

const (
	// bakeryClassic is provably correct under any write ordering: each of
	// the three acquire writes (C=1, T=tmp, C=0) is followed by a fence.
	// NOTE: the ticket T[i] is written *before* the choosing flag C[i] is
	// lowered, as in Lamport's original algorithm. The paper's Algorithm 1
	// listing prints these two writes in the opposite order, which is
	// incorrect (two processes can then pass each other's gates even under
	// sequential consistency); see bakeryPaperLiteral and the model-
	// checking experiment that exhibits the violation.
	bakeryClassic bakeryFences = iota + 1
	// bakeryTSO drops the fence between the T-write and the C-write. The
	// T→C commit order is exactly what a FIFO (TSO) buffer guarantees for
	// free, so the lock stays correct under TSO with one fewer fence —
	// and loses mutual exclusion under PSO, where the two writes can
	// commit out of order. This is the behavioural half of the paper's
	// TSO/PSO separation.
	bakeryTSO
	// bakeryPaperLiteral reproduces the paper's printed line order
	// (write(C[i],0); fence(); write(T[i],tmp); fence()) — lowering the
	// choosing flag before publishing the ticket. Unsafe under every
	// model, kept as a documented erratum and model-checker test subject.
	bakeryPaperLiteral
	// bakeryNone drops every fence (classic write order kept): correct
	// only under SC, where writes commit in program order anyway. The
	// Bakery negative control of the SC/TSO separation, and by
	// construction the fence-stripped form of bakeryClassic — the fence
	// synthesizer's zero placement (see internal/synth).
	bakeryNone
)

// bakerySpec parameterizes one Bakery instance or one Bakery node inside a
// generalized tournament tree.
type bakerySpec struct {
	// pfx prefixes local-variable names so fragments compose safely.
	pfx string
	// cBase and tBase evaluate to the first register of the C respectively
	// T array for the group this process competes in.
	cBase, tBase lang.Expr
	// me evaluates to the process's slot within the group.
	me lang.Expr
	// g is the group size (the array length).
	g lang.Expr
	// fences selects the fence placement.
	fences bakeryFences
}

// bakeryAcquire generates the Bakery lock acquisition for spec.
//
// With classic fencing the generated code is (for slot me in a group of g):
//
//	write(C[me], 1); fence()                 // announce: choosing
//	tmp := 1 + max{T[0..g-1]}                // scan for the next ticket
//	write(T[me], tmp); fence()               // publish ticket
//	write(C[me], 0); fence()                 // done choosing
//	for j in [0,g), j != me:
//	    wait until C[j] == 0
//	    wait until T[j] == 0 or (T[me],me) < (T[j],j)
//
// The returned doorwayLen is the number of leading statements forming the
// wait-free doorway (everything before the wait section).
func bakeryAcquire(s bakerySpec) (stmts []lang.Stmt, doorwayLen int) {
	v := func(suffix string) string { return s.pfx + suffix }
	cAt := func(idx lang.Expr) lang.Expr { return lang.Add(s.cBase, idx) }
	tAt := func(idx lang.Expr) lang.Expr { return lang.Add(s.tBase, idx) }
	j := v("j")
	tj := v("tj")
	cj := v("cj")
	max := v("max")
	tk := v("tk")
	me := v("me")

	stmts = []lang.Stmt{
		// Cache the slot so the expression is evaluated once.
		lang.Assign(me, s.me),
		lang.Write(cAt(lang.L(me)), lang.I(1)),
	}
	if s.fences != bakeryNone {
		stmts = append(stmts, lang.Fence())
	}
	// tmp := 1 + max{T[0..g-1]}
	stmts = append(stmts, lang.Assign(max, lang.I(0)))
	stmts = append(stmts, lang.For(j, lang.I(0), s.g,
		lang.Read(tj, tAt(lang.L(j))),
		lang.If(lang.Gt(lang.L(tj), lang.L(max)),
			lang.Assign(max, lang.L(tj))),
	)...)
	stmts = append(stmts, lang.Assign(tk, lang.Add(lang.I(1), lang.L(max))))

	switch s.fences {
	case bakeryClassic:
		stmts = append(stmts,
			lang.Write(tAt(lang.L(me)), lang.L(tk)),
			lang.Fence(),
			lang.Write(cAt(lang.L(me)), lang.I(0)),
			lang.Fence(),
		)
	case bakeryTSO:
		// No fence between the two writes: TSO's FIFO buffer already
		// commits T before C; PSO does not, and loses mutual exclusion.
		stmts = append(stmts,
			lang.Write(tAt(lang.L(me)), lang.L(tk)),
			lang.Write(cAt(lang.L(me)), lang.I(0)),
			lang.Fence(),
		)
	case bakeryPaperLiteral:
		// The paper's printed order: choosing flag lowered before the
		// ticket is published. Incorrect under every memory model.
		stmts = append(stmts,
			lang.Write(cAt(lang.L(me)), lang.I(0)),
			lang.Fence(),
			lang.Write(tAt(lang.L(me)), lang.L(tk)),
			lang.Fence(),
		)
	case bakeryNone:
		// Classic write order, no fences at all: SC only.
		stmts = append(stmts,
			lang.Write(tAt(lang.L(me)), lang.L(tk)),
			lang.Write(cAt(lang.L(me)), lang.I(0)),
		)
	}

	doorwayLen = len(stmts)

	// Wait section: for each j != me, first until C[j]==0, then until
	// T[j]==0 or (T[me],me) < (T[j],j) lexicographically.
	hasPriority := lang.Or(
		lang.Eq(lang.L(tj), lang.I(0)),
		lang.Or(
			lang.Lt(lang.L(tk), lang.L(tj)),
			lang.And(lang.Eq(lang.L(tk), lang.L(tj)), lang.Lt(lang.L(me), lang.L(j))),
		),
	)
	stmts = append(stmts, lang.For(j, lang.I(0), s.g,
		lang.If(lang.Ne(lang.L(j), lang.L(me)),
			lang.Read(cj, cAt(lang.L(j))),
			lang.While(lang.Ne(lang.L(cj), lang.I(0)),
				lang.Read(cj, cAt(lang.L(j))),
			),
			lang.Read(tj, tAt(lang.L(j))),
			lang.While(lang.Not(hasPriority),
				lang.Read(tj, tAt(lang.L(j))),
			),
		),
	)...)
	return stmts, doorwayLen
}

// bakeryRelease generates the Bakery release: write(T[me], 0); fence()
// (the fence is dropped by the fully unfenced bakeryNone variant).
func bakeryRelease(s bakerySpec) []lang.Stmt {
	me := s.pfx + "rme"
	stmts := []lang.Stmt{
		lang.Assign(me, s.me),
		lang.Write(lang.Add(s.tBase, lang.L(me)), lang.I(0)),
	}
	if s.fences != bakeryNone {
		stmts = append(stmts, lang.Fence())
	}
	return stmts
}

func newBakeryVariant(lay *machine.Layout, name string, n int, fences bakeryFences) (*Algorithm, error) {
	if n < 1 {
		return nil, fmt.Errorf("locks: bakery needs n >= 1, got %d", n)
	}
	c, err := lay.Alloc(name+".C", n, machine.OwnedBy)
	if err != nil {
		return nil, fmt.Errorf("locks: %w", err)
	}
	t, err := lay.Alloc(name+".T", n, machine.OwnedBy)
	if err != nil {
		return nil, fmt.Errorf("locks: %w", err)
	}
	spec := bakerySpec{
		pfx:    name + "_",
		cBase:  lang.I(c.Base),
		tBase:  lang.I(t.Base),
		me:     lang.PID(),
		g:      lang.I(int64(n)),
		fences: fences,
	}
	acquire, doorway := bakeryAcquire(spec)
	return &Algorithm{
		name:         name,
		n:            n,
		acquire:      acquire,
		release:      bakeryRelease(spec),
		doorwaySplit: doorway,
	}, nil
}

// NewBakery returns an n-process Bakery lock (the paper's Algorithm 1 with
// the classic, provably correct write order): O(1) fences and Θ(n) RMRs per
// passage — the f=1 extreme of the tradeoff. C[i] and T[i] live in process
// i's memory segment.
func NewBakery(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newBakeryVariant(lay, name, n, bakeryClassic)
}

// NewBakeryTSO returns the Bakery variant that omits the fence between the
// ticket write and the choosing-flag write, relying on FIFO (TSO) commit
// order instead. Correct under SC and TSO; loses mutual exclusion under
// PSO. This is the behavioural witness of the paper's TSO/PSO separation.
func NewBakeryTSO(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newBakeryVariant(lay, name, n, bakeryTSO)
}

// NewBakeryLiteral returns the Bakery variant with the paper's printed
// line order (choosing flag lowered before the ticket is published).
// Incorrect under every memory model, including SC; kept as a documented
// erratum exhibit for the model checker.
func NewBakeryLiteral(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newBakeryVariant(lay, name, n, bakeryPaperLiteral)
}

// NewBakeryNoFence returns the Bakery lock with every fence removed
// (classic write order kept). Correct only under SC; the Bakery half of
// the SC/TSO separation's negative controls, and by construction identical
// to stripping NewBakery's fences (the fence synthesizer's zero
// placement).
func NewBakeryNoFence(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newBakeryVariant(lay, name, n, bakeryNone)
}

// FromFragments assembles an Algorithm directly from statement fragments
// over registers the caller already allocated. It is the escape hatch for
// program transformations — fence stripping and synthesis rebuild an
// existing lock's fragments through it — while ordinary lock construction
// goes through the New* constructors. doorwaySplit declares the wait-free
// doorway prefix of acquire (0 = none).
func FromFragments(name string, n int, acquire, release []lang.Stmt, doorwaySplit int) (*Algorithm, error) {
	if n < 1 {
		return nil, fmt.Errorf("locks: FromFragments needs n >= 1, got %d", n)
	}
	if doorwaySplit < 0 || doorwaySplit > len(acquire) {
		return nil, fmt.Errorf("locks: doorway split %d out of range for %d acquire statements", doorwaySplit, len(acquire))
	}
	return &Algorithm{
		name:         name,
		n:            n,
		acquire:      acquire,
		release:      release,
		doorwaySplit: doorwaySplit,
	}, nil
}
