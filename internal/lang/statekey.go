package lang

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// This file compiles a Program against a code index that gives every
// program point and every local variable a small, build-stable integer
// identity, and encodes a settled ProcState into a compact binary form
// keyed on those identities. It is the control-state half of the
// machine's binary StateKey codec.
//
// The index walks the program's statement tree once, in deterministic
// order, and assigns dense IDs, so two processes that build the same
// program from the same source assign the same IDs. That is what lets
// checkpoints reuse visited-state shards across OS processes. The walk
// also resolves everything the interpreter would otherwise look up by
// name or address on every step: a local's slot, a block's ID, a loop's
// ID. Settling, keying and snapshotting a process then touch no map.

// blockKey identifies a statement block by its backing array address and
// length. The same (address, length) pair implies identical contents —
// ASTs are immutable once built — while the length distinguishes prefix
// slices that alias the same backing array (a doorway split is
// acquire[:k]).
type blockKey struct {
	first *Stmt
	n     int
}

func keyOf(b []Stmt) blockKey { return blockKey{first: &b[0], n: len(b)} }

// block is one statement block compiled against a program's code index.
// The same source block referenced twice compiles to one block: a frame's
// continuation is determined by its parent frames, not by which
// occurrence pushed it.
type block struct {
	// id is the block's build-stable ID, from 1; only the empty block
	// has ID 0.
	id    uint64
	stmts []Stmt
	// code[i] is stmts[i]'s program-specific resolution.
	code []instr
}

// instr is what the code index resolved for one statement.
type instr struct {
	// dst is the destination slot of an assignment, read or TAS.
	dst int
	// body is an if's then-branch or a while's loop body; els is an if's
	// else-branch. Empty branches compile to emptyBlock.
	body, els *block
	// loop and loopID are a while statement and its build-stable ID
	// (from 1). A frame whose loop is non-nil is that loop's body.
	loop   *WhileStmt
	loopID uint64
}

// emptyBlock is every empty statement block (ID 0).
var emptyBlock = &block{}

// codeIndex is the per-Program registry of block, loop and local-variable
// identities, and the program compiled against them. IDs are assigned in
// a deterministic pre-order walk of the statement tree, so they are
// stable across builds and OS processes. Block and loop IDs start at 1;
// 0 is reserved for "empty block" / "no loop".
type codeIndex struct {
	// body and recovery are the program's Body and Recovery, compiled.
	body, recovery *block
	// localNames lists the bindable locals in slot order (sorted).
	localNames []string
	// symSlot maps a bindable local's symbol (see intern) to its slot, -1
	// for a symbol the program never binds.
	symSlot []int32
	// durable lists the slots of the program's bindable durable locals.
	durable []int
	// fenceOnlyLoop: see Program.FenceOnlyLoop.
	fenceOnlyLoop bool
}

// index returns the program's code index, building it on first use. It
// lives in the Program, so it is freed with it. Racing builders produce
// identical indexes; the first to publish wins.
func (p *Program) index() *codeIndex {
	if ci := p.ci.Load(); ci != nil {
		return ci
	}
	p.ci.CompareAndSwap(nil, buildCodeIndex(p))
	return p.ci.Load()
}

func buildCodeIndex(p *Program) *codeIndex {
	ci := &codeIndex{}
	// Blocks, statements and destinations come from slabs sized by one
	// counting walk (an upper bound: a shared fragment counts once per
	// occurrence), so compiling allocates per program, not per block.
	var nb, ns, nd int
	countCode(p.Body, &nb, &ns, &nd)
	countCode(p.Recovery, &nb, &ns, &nd)
	blockSlab := make([]block, nb)
	codeSlab := make([]instr, ns)
	blocks := make(map[blockKey]*block, nb)
	loops := make(map[*WhileStmt]uint64)
	// Destination slots are resolved once every bindable local is known.
	type dstRef struct {
		in   *instr
		name string
	}
	dsts := make([]dstRef, 0, nd)
	var compile func(b []Stmt) *block
	compile = func(b []Stmt) *block {
		if len(b) == 0 {
			return emptyBlock
		}
		k := keyOf(b)
		if blk, seen := blocks[k]; seen {
			return blk
		}
		blk := &blockSlab[len(blocks)]
		*blk = block{id: uint64(len(blocks) + 1), stmts: b, code: codeSlab[:len(b):len(b)]}
		codeSlab = codeSlab[len(b):]
		blocks[k] = blk
		for i, st := range b {
			in := &blk.code[i]
			switch st := st.(type) {
			case *AssignStmt:
				dsts = append(dsts, dstRef{in, st.Dst})
			case *ReadStmt:
				dsts = append(dsts, dstRef{in, st.Dst})
			case *TasStmt:
				dsts = append(dsts, dstRef{in, st.Dst})
			case *IfStmt:
				in.body = compile(st.Then)
				in.els = compile(st.Else)
			case *WhileStmt:
				if _, seen := loops[st]; !seen {
					loops[st] = uint64(len(loops) + 1)
				}
				in.loop, in.loopID = st, loops[st]
				in.body = compile(st.Body)
			}
		}
		return blk
	}
	ci.body = compile(p.Body)
	// The recovery section is walked after the body so that adding one to
	// an existing program never renumbers the body's blocks or loops.
	ci.recovery = compile(p.Recovery)
	// Slots in sorted-name order: the key encodes bound locals in slot
	// order, matching the reference string fingerprint's sorted encoding
	// so both induce the same state partition.
	slot := make(map[string]int)
	for _, d := range dsts {
		if _, seen := slot[d.name]; !seen {
			slot[d.name] = 0
			ci.localNames = append(ci.localNames, d.name)
		}
	}
	sort.Strings(ci.localNames)
	for i, n := range ci.localNames {
		slot[n] = i
		sym := intern(n)
		for int(sym) >= len(ci.symSlot) {
			ci.symSlot = append(ci.symSlot, -1)
		}
		ci.symSlot[sym] = int32(i)
	}
	for _, d := range dsts {
		d.in.dst = slot[d.name]
	}
	for _, name := range p.Durable {
		if i, ok := slot[name]; ok {
			ci.durable = append(ci.durable, i)
		}
	}
	ci.fenceOnlyLoop = fenceOnlyLoop(p.Body, false) || fenceOnlyLoop(p.Recovery, false)
	return ci
}

// countCode adds to nb, ns and nd the blocks, statements and local
// destinations under b, counting a shared fragment at every occurrence.
func countCode(b []Stmt, nb, ns, nd *int) {
	if len(b) == 0 {
		return
	}
	*nb++
	*ns += len(b)
	for _, st := range b {
		switch st := st.(type) {
		case *AssignStmt, *ReadStmt, *TasStmt:
			*nd++
		case *IfStmt:
			countCode(st.Then, nb, ns, nd)
			countCode(st.Else, nb, ns, nd)
		case *WhileStmt:
			countCode(st.Body, nb, ns, nd)
		}
	}
}

// slotOf returns the slot of the bindable local name.
func (ci *codeIndex) slotOf(name string) (int, bool) {
	i := sort.SearchStrings(ci.localNames, name)
	return i, i < len(ci.localNames) && ci.localNames[i] == name
}

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
// future schedules. Program points are encoded as the code index's
// stable IDs, so the encoding is reproducible across OS processes.
//
// Callers must settle the state first (call NextOp) so pending local
// computation does not make semantically equal states look different.
// Nothing is cached: the machine keeps each process's key component
// itself and encodes a process again only after a step changed it.
func (s *ProcState) AppendStateKey(buf []byte) []byte {
	if s.halted {
		buf = append(buf, stateTagHalted)
		return binary.AppendVarint(buf, s.retValue)
	}
	buf = append(buf, stateTagLive)
	buf = binary.AppendUvarint(buf, uint64(len(s.frames)))
	for _, f := range s.frames {
		var loopID uint64
		if f.loop != nil {
			loopID = f.loop.loopID
		}
		buf = binary.AppendUvarint(buf, f.blk.id)
		buf = binary.AppendUvarint(buf, uint64(f.idx))
		buf = binary.AppendUvarint(buf, loopID)
	}
	// Bound locals only, as (slot, value) pairs in slot order: an unbound
	// local is distinguishable from one bound to zero.
	vals, bound := s.env.split()
	count := 0
	for _, w := range bound {
		count += bits.OnesCount64(uint64(w))
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for wi, w := range bound {
		for u := uint64(w); u != 0; u &= u - 1 {
			i := wi*64 + bits.TrailingZeros64(u)
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.AppendVarint(buf, vals[i])
		}
	}
	return buf
}
