package lang

import (
	"encoding/binary"
	"sort"
	"sync"
)

// This file gives every program point and every local variable of a
// Program a small, build-stable integer identity, and encodes a settled
// ProcState into a compact binary form keyed on those identities. It is
// the control-state half of the machine's binary StateKey codec.
//
// The legacy string fingerprint (AppendFingerprint) identifies program
// points by the address of a statement block's backing array — canonical
// only within one OS process. The code index below walks the program's
// statement tree once, in deterministic order, and assigns dense IDs, so
// two processes that build the same program from the same source assign
// the same IDs. That is what lets checkpoint v3 reuse visited-state
// shards across OS processes.

// blockKey identifies a statement block by its backing array address and
// length. The same (address, length) pair implies identical contents —
// ASTs are immutable once built — while the length distinguishes prefix
// slices that alias the same backing array (a doorway split is
// acquire[:k]). This is the legacy fingerprint's %p identity made exact.
type blockKey struct {
	first *Stmt
	n     int
}

func keyOf(b []Stmt) blockKey { return blockKey{first: &b[0], n: len(b)} }

// codeIndex is the per-Program registry of block, loop and local-variable
// identities. IDs are assigned in a deterministic pre-order walk of the
// statement tree, so they are stable across builds and OS processes.
// Block and loop IDs start at 1; 0 is reserved for "empty block" /
// "no loop".
type codeIndex struct {
	blocks map[blockKey]uint64
	loops  map[*WhileStmt]uint64
	locals map[string]uint64
	// localNames lists the bindable locals in index order (sorted).
	localNames []string
	// fenceOnlyLoop: see Program.FenceOnlyLoop.
	fenceOnlyLoop bool
}

// codeIndexes caches one index per Program. Programs are few and
// long-lived (one per lock instance), so entries are never evicted.
// Racing builders produce identical indexes; LoadOrStore keeps one.
var codeIndexes sync.Map // *Program -> *codeIndex

func (p *Program) index() *codeIndex {
	if v, ok := codeIndexes.Load(p); ok {
		return v.(*codeIndex)
	}
	v, _ := codeIndexes.LoadOrStore(p, buildCodeIndex(p))
	return v.(*codeIndex)
}

func buildCodeIndex(p *Program) *codeIndex {
	ci := &codeIndex{
		blocks: make(map[blockKey]uint64),
		loops:  make(map[*WhileStmt]uint64),
		locals: make(map[string]uint64),
	}
	names := make(map[string]bool)
	var walk func(b []Stmt)
	walk = func(b []Stmt) {
		if len(b) == 0 {
			return
		}
		k := keyOf(b)
		if _, seen := ci.blocks[k]; seen {
			// A shared fragment referenced twice: one ID suffices, because
			// a frame's continuation is determined by its parent frames,
			// not by which occurrence pushed it.
			return
		}
		ci.blocks[k] = uint64(len(ci.blocks) + 1)
		for _, st := range b {
			switch st := st.(type) {
			case *AssignStmt:
				names[st.Dst] = true
			case *ReadStmt:
				names[st.Dst] = true
			case *TasStmt:
				names[st.Dst] = true
			case *IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *WhileStmt:
				if _, seen := ci.loops[st]; !seen {
					ci.loops[st] = uint64(len(ci.loops) + 1)
				}
				walk(st.Body)
			}
		}
	}
	walk(p.Body)
	// The recovery section is walked after the body so that adding one to
	// an existing program never renumbers the body's blocks or loops.
	walk(p.Recovery)
	// Local indices in sorted-name order, matching the legacy string
	// fingerprint's sorted encoding so both induce the same state
	// partition.
	ci.localNames = make([]string, 0, len(names))
	for n := range names {
		ci.localNames = append(ci.localNames, n)
	}
	sort.Strings(ci.localNames)
	for i, n := range ci.localNames {
		ci.locals[n] = uint64(i)
	}
	ci.fenceOnlyLoop = fenceOnlyLoop(p.Body, false) || fenceOnlyLoop(p.Recovery, false)
	return ci
}

// LocalNames returns the local variables the program can bind, sorted.
// The returned slice is shared; callers must not modify it.
func (p *Program) LocalNames() []string { return p.index().localNames }

// FenceOnlyLoop reports whether some fence's innermost enclosing while
// loop has no read, write, TAS or return at the top level of its body.
// Only such a fence can be reached again through fences and local
// computation alone: the way back runs a full iteration of its innermost
// loop, which executes every top-level statement of the body except the
// one holding the fence. The model checker's partial-order reduction
// never reduces at a fence of such a program — its static cycle proviso
// (DESIGN.md §5j).
func (p *Program) FenceOnlyLoop() bool { return p.index().fenceOnlyLoop }

// fenceOnlyLoop reports whether block b holds a fence whose innermost
// enclosing loop is fence-only; bare says whether b's own innermost
// enclosing loop is (false outside every loop). Shared fragments are
// walked once per occurrence, since each sits in its own loop.
func fenceOnlyLoop(b []Stmt, bare bool) bool {
	for _, st := range b {
		switch st := st.(type) {
		case *FenceStmt:
			if bare {
				return true
			}
		case *IfStmt:
			if fenceOnlyLoop(st.Then, bare) || fenceOnlyLoop(st.Else, bare) {
				return true
			}
		case *WhileStmt:
			inner := true
			for _, s := range st.Body {
				switch s.(type) {
				case *ReadStmt, *WriteStmt, *TasStmt, *ReturnStmt:
					inner = false
				}
			}
			if fenceOnlyLoop(st.Body, inner) {
				return true
			}
		}
	}
	return false
}

// Proc-state encoding tags. A halted process encodes only its return
// value (locals can no longer influence behaviour); a live process
// encodes its control stack and bound locals.
const (
	stateTagHalted = 0x01
	stateTagLive   = 0x02
)

// AppendStateKey appends a canonical, injective binary encoding of the
// process's behavioural state to buf and returns the extended slice.
// Two states with equal encodings behave identically under identical
// future schedules — the binary counterpart of AppendFingerprint, minus
// the pointer identities: program points are encoded as the code index's
// stable IDs, so the encoding is reproducible across OS processes.
//
// rename, when non-nil, maps each bound local's value before encoding;
// the machine's process-symmetry canonicalization uses it to rename
// PID-typed locals. Callers must settle the state first (call NextOp) so
// pending local computation does not make semantically equal states look
// different.
func (s *ProcState) AppendStateKey(buf []byte, rename func(name string, v Value) Value) []byte {
	if s.halted {
		buf = append(buf, stateTagHalted)
		return binary.AppendVarint(buf, s.retValue)
	}
	ci := s.prog.index()
	buf = append(buf, stateTagLive)
	buf = binary.AppendUvarint(buf, uint64(len(s.frames)))
	for _, f := range s.frames {
		var blockID, loopID uint64
		if len(f.stmts) > 0 {
			blockID = ci.blocks[keyOf(f.stmts)]
		}
		if f.loop != nil {
			loopID = ci.loops[f.loop]
		}
		buf = binary.AppendUvarint(buf, blockID)
		buf = binary.AppendUvarint(buf, uint64(f.idx))
		buf = binary.AppendUvarint(buf, loopID)
	}
	// Bound locals only, as (index, value) pairs in index order: an
	// unbound local is distinguishable from one bound to zero, exactly as
	// in the legacy string fingerprint.
	buf = binary.AppendUvarint(buf, uint64(len(s.env.Locals)))
	for _, name := range ci.localNames {
		v, ok := s.env.Locals[name]
		if !ok {
			continue
		}
		if rename != nil {
			v = rename(name, v)
		}
		buf = binary.AppendUvarint(buf, ci.locals[name])
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}
