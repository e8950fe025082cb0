package machine

import (
	"bytes"

	"tradingfences/internal/lang"
)

// Process-symmetry canonicalization. The paper's lower bound (Section 4)
// is built on permutations π of interchangeable processes, and the locks
// whose per-process state is fully PID-symmetric admit a classic state-
// space reduction: key the visited set on a canonical representative of
// each state's orbit under process renaming, so mirror-image states are
// explored once.
//
// The reduction is KEY-ONLY: the explorer always walks concrete states
// and records concrete schedules, and only the visited-set key is
// canonicalized. Witnesses therefore need no de-canonicalization — every
// counterexample is a concrete schedule that replays directly (it may be
// the mirror image of the one the unreduced search would print, which is
// an equally genuine violation).
//
// Soundness requires that renaming processes is an automorphism of the
// transition system, which holds only when every PID-typed datum renames
// consistently — declared per lock via SymmetrySpec. Locks that do not
// declare a spec (Bakery's ordered ticket scan compares slot numbers
// with <, so renaming is NOT an automorphism there; tournament trees wire
// processes to fixed leaves) get the identity canonicalization: enabling
// symmetry on them is an honest no-op, never an unsound reduction.

// SymmetrySpec declares how a lock's data renames under a permutation π
// of the process IDs [0, n). Registers of per-process arrays (length n,
// element i owned by process i) rename positionally — element i moves to
// element π(i) — which the canonicalizer derives from the Layout; the
// spec adds the value-level renamings the layout cannot express.
type SymmetrySpec struct {
	// PIDRegs maps a register to the offset d of its PID-valued domain: a
	// stored value v with v−d ∈ [0, n) renames to π(v−d)+d, and values
	// outside that window (e.g. the 0 "unset" marker under d=1) are
	// fixed. Peterson's victim register stores slot+1, so its offset is 1.
	PIDRegs map[Reg]Value
	// PIDLocals does the same for named local variables.
	PIDLocals map[string]Value
}

// renamer applies one permutation to a configuration during encoding.
type renamer struct {
	perm []int // π: old pid → new pid
	inv  []int // π⁻¹
	// regMap[r] is the renamed register, dense over the layout.
	regMap []Reg
	spec   *SymmetrySpec
	n      int
	// locals holds the local renaming resolved for each program seen so
	// far (a subject runs one program on every process, so one entry).
	locals []progLocals
}

// progLocals is the spec's PIDLocals resolved to one program's local
// slots: fn renames the value of the local in a given slot, and is nil
// when the program has no PID-typed local.
type progLocals struct {
	prog *lang.Program
	fn   func(slot int, v Value) Value
}

func newRenamer(lay *Layout, n int, spec *SymmetrySpec, perm []int) *renamer {
	rn := &renamer{perm: perm, inv: make([]int, n), spec: spec, n: n}
	for i, j := range perm {
		rn.inv[j] = i
	}
	rn.regMap = make([]Reg, lay.Size())
	for r := range rn.regMap {
		rn.regMap[r] = Reg(r)
	}
	for _, a := range lay.perProcessArrays(n) {
		for i := 0; i < n; i++ {
			rn.regMap[a.Base+Reg(i)] = a.Base + Reg(perm[i])
		}
	}
	return rn
}

// localFn returns the PID-typed local renaming for prog's slots,
// resolving spec.PIDLocals by name once per program.
func (rn *renamer) localFn(prog *lang.Program) func(slot int, v Value) Value {
	for _, l := range rn.locals {
		if l.prog == prog {
			return l.fn
		}
	}
	names := prog.LocalNames()
	pid := make([]bool, len(names))
	off := make([]Value, len(names))
	typed := false
	for i, name := range names {
		if d, ok := rn.spec.PIDLocals[name]; ok {
			pid[i], off[i], typed = true, d, true
		}
	}
	var fn func(int, Value) Value
	if typed {
		fn = func(slot int, v Value) Value {
			if !pid[slot] {
				return v
			}
			d := off[slot]
			if x := v - d; x >= 0 && x < Value(rn.n) {
				return d + Value(rn.perm[x])
			}
			return v
		}
	}
	rn.locals = append(rn.locals, progLocals{prog: prog, fn: fn})
	return fn
}

func (rn *renamer) reg(r Reg) Reg {
	if r >= 0 && int(r) < len(rn.regMap) {
		return rn.regMap[r]
	}
	return r
}

func (rn *renamer) val(r Reg, v Value) Value {
	d, ok := rn.spec.PIDRegs[r]
	if !ok {
		return v
	}
	if x := v - d; x >= 0 && x < Value(rn.n) {
		return d + Value(rn.perm[x])
	}
	return v
}

// perProcessArrays returns the arrays that rename positionally under a
// process permutation: length n with element i owned by process i.
func (l *Layout) perProcessArrays(n int) []Array {
	var out []Array
	for _, name := range l.order {
		a := l.arrays[name]
		if a.Len != n {
			continue
		}
		ok := true
		for i := 0; i < n; i++ {
			if l.Owner(a.Base+Reg(i)) != i {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// Canonicalizer computes, for each configuration, the lexicographically
// least state encoding over all process renamings of a SymmetrySpec.
// With a nil spec it degrades to the plain (identity) encoding. One per
// worker goroutine; not safe for concurrent use.
type Canonicalizer struct {
	renamers  []*renamer // nil when spec is nil (identity only)
	enc       KeyEncoder
	cur, best []byte
}

// NewCanonicalizer builds the canonicalizer for a subject's layout and
// process count. spec == nil yields the identity canonicalization.
func NewCanonicalizer(lay *Layout, n int, spec *SymmetrySpec) *Canonicalizer {
	cz := &Canonicalizer{}
	if spec == nil {
		return cz
	}
	for _, perm := range permutations(n) {
		cz.renamers = append(cz.renamers, newRenamer(lay, n, spec, perm))
	}
	return cz
}

// Reduces reports whether the canonicalizer applies a non-trivial
// symmetry reduction (a declared spec over more than one permutation).
func (cz *Canonicalizer) Reduces() bool { return len(cz.renamers) > 1 }

// AppendCanonicalStateBytes appends the orbit-canonical state encoding of
// c to buf: the lexicographic minimum of the renamed encodings over all
// permutations. Two configurations get equal canonical bytes iff one is
// a process renaming of the other (the encoding is injective and the
// renamings form a group).
func (cz *Canonicalizer) AppendCanonicalStateBytes(c *Config, buf []byte) ([]byte, error) {
	if len(cz.renamers) == 0 {
		return cz.enc.append(c, buf, nil)
	}
	var err error
	cz.best, err = cz.enc.append(c, cz.best[:0], cz.renamers[0])
	if err != nil {
		return nil, err
	}
	for _, rn := range cz.renamers[1:] {
		cz.cur, err = cz.enc.append(c, cz.cur[:0], rn)
		if err != nil {
			return nil, err
		}
		if bytes.Compare(cz.cur, cz.best) < 0 {
			cz.cur, cz.best = cz.best, cz.cur
		}
	}
	return append(buf, cz.best...), nil
}

// permutations enumerates all permutations of [0, n) in lexicographic
// order (the first is the identity). n is a process count — tiny.
func permutations(n int) [][]int {
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var out [][]int
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				cur = append(cur, i)
				rec()
				cur = cur[:len(cur)-1]
				used[i] = false
			}
		}
	}
	rec()
	return out
}
