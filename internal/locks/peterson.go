package locks

import (
	"fmt"

	"tradingfences/internal/lang"
	"tradingfences/internal/machine"
)

// petersonFences selects the fence placement of a Peterson lock fragment.
// The three placements realize the SC ⊋ TSO ⊋ PSO hierarchy:
//
//   - petersonPSO (two fences) is correct under every model: each announce
//     write is individually committed before the process proceeds.
//   - petersonTSO (one fence, after both writes) is correct under SC and
//     TSO but NOT under PSO: while the process is blocked at its fence the
//     adversary may commit victim before flag and schedule the rival in
//     between, which then reads flag == 0 and enters; when the blocked
//     process finally passes its fence it reads victim == rival's value and
//     enters too. TSO's FIFO commit order (flag before victim) excludes
//     this. One fence is still necessary under TSO for the store-load
//     ordering (reads must not bypass the buffered announce writes).
//   - petersonNone (no fence) is correct only under SC.
type petersonFences int

const (
	petersonPSO petersonFences = iota + 1
	petersonTSO
	petersonNone
)

// petersonSpec parameterizes a two-slot Peterson lock fragment, either
// standalone (slots = the two process IDs) or as a tournament-tree node
// (slots = the two child subtrees).
type petersonSpec struct {
	pfx string
	// flagBase is the first of the node's two flag registers; the flag of
	// slot s is flagBase + s.
	flagBase lang.Expr
	// victim is the node's victim register. The value stored is slot+1 so
	// that the initial 0 means "no victim yet".
	victim lang.Expr
	// me evaluates to this process's slot (0 or 1).
	me lang.Expr
	// fences selects the fence placement (see petersonFences).
	fences petersonFences
}

// petersonAcquire generates, for slot me ∈ {0,1}:
//
//	write(flag[me], 1)
//	fence()                                  // petersonPSO only
//	write(victim, me+1)
//	fence()                                  // petersonPSO and petersonTSO
//	wait until flag[1-me] == 0 or victim != me+1
//
// doorwayLen is the number of leading statements forming the wait-free
// doorway (the announce writes and their fences).
func petersonAcquire(s petersonSpec) (stmts []lang.Stmt, doorwayLen int) {
	v := func(suffix string) string { return s.pfx + suffix }
	me, fo, vi := v("me"), v("fo"), v("vi")
	flagAt := func(idx lang.Expr) lang.Expr { return lang.Add(s.flagBase, idx) }

	stmts = []lang.Stmt{
		lang.Assign(me, s.me),
		lang.Write(flagAt(lang.L(me)), lang.I(1)),
	}
	if s.fences == petersonPSO {
		stmts = append(stmts, lang.Fence())
	}
	stmts = append(stmts, lang.Write(s.victim, lang.Add(lang.L(me), lang.I(1))))
	if s.fences == petersonPSO || s.fences == petersonTSO {
		stmts = append(stmts, lang.Fence())
	}
	doorwayLen = len(stmts)
	blocked := lang.And(
		lang.Eq(lang.L(fo), lang.I(1)),
		lang.Eq(lang.L(vi), lang.Add(lang.L(me), lang.I(1))),
	)
	stmts = append(stmts,
		lang.Read(fo, flagAt(lang.Sub(lang.I(1), lang.L(me)))),
		lang.Read(vi, s.victim),
		lang.While(blocked,
			lang.Read(fo, flagAt(lang.Sub(lang.I(1), lang.L(me)))),
			lang.Read(vi, s.victim),
		),
	)
	return stmts, doorwayLen
}

// petersonRelease generates write(flag[me], 0); fence() (the fence is
// dropped by the fully unfenced petersonNone variant, which would
// otherwise not be the fence-stripped form of the lock it claims to be).
func petersonRelease(s petersonSpec) []lang.Stmt {
	me := s.pfx + "rme"
	stmts := []lang.Stmt{
		lang.Assign(me, s.me),
		lang.Write(lang.Add(s.flagBase, lang.L(me)), lang.I(0)),
	}
	if s.fences != petersonNone {
		stmts = append(stmts, lang.Fence())
	}
	return stmts
}

func newPetersonVariant(lay *machine.Layout, name string, n int, fences petersonFences) (*Algorithm, error) {
	if n != 2 {
		return nil, fmt.Errorf("locks: peterson is a two-process lock, got n=%d", n)
	}
	flags, err := lay.Alloc(name+".flag", 2, machine.OwnedBy)
	if err != nil {
		return nil, fmt.Errorf("locks: %w", err)
	}
	victim, err := lay.Alloc(name+".victim", 1, machine.Unowned)
	if err != nil {
		return nil, fmt.Errorf("locks: %w", err)
	}
	spec := petersonSpec{
		pfx:      name + "_",
		flagBase: lang.I(flags.Base),
		victim:   lang.I(victim.Base),
		me:       lang.PID(),
		fences:   fences,
	}
	acquire, doorway := petersonAcquire(spec)
	return &Algorithm{
		name:         name,
		n:            2,
		acquire:      acquire,
		release:      petersonRelease(spec),
		doorwaySplit: doorway,
	}, nil
}

// NewPeterson returns the two-process Peterson lock with a fence after each
// announce write (two fences, O(1) RMRs per passage). Correct under SC,
// TSO and PSO.
func NewPeterson(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newPetersonVariant(lay, name, n, petersonPSO)
}

// NewPetersonTSO returns Peterson's lock with the classic single store-load
// fence after both announce writes (the x86 placement). Correct under SC
// and TSO; loses mutual exclusion under PSO, where the victim write can
// commit before the flag write while the process is blocked at its fence.
// A behavioural witness of the paper's TSO/PSO separation.
func NewPetersonTSO(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newPetersonVariant(lay, name, n, petersonTSO)
}

// NewPetersonNoFence returns Peterson's lock with no fence at all. Correct
// under SC, where writes are atomic, but broken under TSO (and hence PSO):
// both processes can read the other's flag as 0 while their own announce
// writes sit in their buffers. This is the SC/TSO separation witness.
func NewPetersonNoFence(lay *machine.Layout, name string, n int) (*Algorithm, error) {
	return newPetersonVariant(lay, name, n, petersonNone)
}
