// Package machine implements the shared-memory machine of the paper's
// Section 2: n asynchronous processes communicating through totally-ordered
// registers, each process equipped with a write buffer whose commits are
// controlled by the system (the adversary/scheduler), and the combined
// DSM+CC accounting of remote memory references.
//
// An execution is driven by a schedule of (process, register-or-⊥) pairs,
// exactly as in the paper's definition of Exec_A(C; σ):
//
//  1. if the process is in a final state, the element produces no step;
//  2. if the element names a register with a committable buffered write,
//     the step commits that write;
//  3. otherwise, if the process is poised at a fence with a non-empty
//     buffer, the step commits the buffered write drained first under the
//     model's discipline (smallest register under PSO, FIFO head under TSO);
//  4. otherwise the step performs the process's pending read, write, fence
//     or return operation.
//
// Under TSO, rule 2 additionally requires the named register to be the FIFO
// head — the defining restriction of total store order. Under SC a write
// step commits within the same step.
package machine

import (
	"errors"
	"fmt"

	"tradingfences/internal/lang"
)

// Value is the register value domain (see lang.Value).
type Value = lang.Value

// Bottom is the ⊥ register marker in schedule elements. Schedule elements
// are (p, ⊥), (p, R) or — with fault injection enabled — the crash element
// (p, !); Elem.HasReg and Elem.Crash distinguish them.
type Elem struct {
	P      int
	Reg    Reg
	HasReg bool
	// Crash marks the fault-injection element Crash(p): process p loses
	// its write buffer, interpreter state and knowledge cache (see
	// Config.crashStep).
	Crash bool
}

// PBottom returns the schedule element (p, ⊥).
func PBottom(p int) Elem { return Elem{P: p} }

// PReg returns the schedule element (p, r).
func PReg(p int, r Reg) Elem { return Elem{P: p, Reg: r, HasReg: true} }

// PCrash returns the crash element (p, !).
func PCrash(p int) Elem { return Elem{P: p, Crash: true} }

// Schedule is a finite sequence of schedule elements.
type Schedule []Elem

// ErrBadPID is returned when a schedule element names a process outside
// [0, n).
var ErrBadPID = errors.New("machine: schedule element names an unknown process")

// ErrBadReg is returned when a program's evaluated register operand is
// invalid (negative — including Layout.InvalidReg from an out-of-range
// array index). Malformed programs surface here as structured errors
// instead of corrupting the register namespace.
var ErrBadReg = errors.New("machine: operation on an invalid register")

// noCommitter marks a register no process has ever committed to in the
// dense last-committer table (process ids are non-negative).
const noCommitter = int32(-1)

// Config is a system configuration: the state of each process, each
// register, and each write buffer — plus the bookkeeping needed for RMR
// classification (per-process knowledge caches and the last-committer
// table) and the running cost counters.
//
// All machine-level state is held in flat, index-addressed slices keyed by
// the Layout's contiguous register numbering: reads and writes are array
// ops, clones are copy calls, and the state-key encoder walks contiguous
// memory. Registers are allocated from 0, so the slices are dense; the
// rare write past the layout's size (test setups poking ad-hoc registers)
// grows them on demand (see ensureReg).
type Config struct {
	model Model
	n     int
	lay   *Layout

	// mem[r] is shared memory (0 = the paper's ⊥, never committed). Only
	// setMem writes it.
	mem   []Value
	procs []*lang.ProcState
	wbs   []writeBuffer

	// memSum is the sum of the register components of the state key (see
	// keysum.go), valid iff memSumOK; setMem keeps it current. Clone
	// leaves it invalid, so a clone's first key sums memory afresh.
	memSum   hash128
	memSumOK bool

	// The state key's cache (keysum.go): keyParts[2p] is process p's
	// component and keyParts[2p+1] its buffer's, partSum their sum, and
	// keyMark says which of them a step left stale. keyEpoch counts
	// SetReorderBound calls, so a Revert never restores components that
	// were hashed under another bound. keyBuf is hashing scratch.
	keyParts []hash128
	partSum  hash128
	keyMark  keyMark
	keyEpoch uint32
	keyBuf   []byte

	// cache[p*cacheStride+r] is the last value process p read from or
	// wrote to r, valid iff the matching cacheKnown bit is set; a read
	// returning that same value is served by p's cache and is therefore
	// local (the paper's CC half of the combined model).
	cache       []Value
	cacheKnown  []bool
	cacheStride int

	// lastCommitter[r] is the last process to commit a write to r
	// (noCommitter if none); a commit by the same process again is local
	// (no other process took the cache line / memory ownership away in
	// between).
	lastCommitter []int32

	accounting Accounting

	// faults is the installed fault plan (stall-window enforcement); nil
	// means fault-free. steps is the global step clock the plan's windows
	// are expressed against.
	faults *FaultPlan
	steps  int64

	stats *Stats
	trace *Trace

	// Recoverable-passage accounting (see passage.go). When enabled, a
	// read of passEnter opens process p's passage and a read of passExit
	// closes it, recording the passage's dual CC/DSM remote-reference
	// counts into passLog. Crashes do not close a passage: a re-entry
	// through recovery continues the same super-passage, exactly the
	// Chan–Woelfel cost unit. Deliberately excluded from state keys and
	// fingerprints — it is cost accounting, not behaviour.
	passEnabled         bool
	passEnter, passExit Reg
	passLog             *PassageLog
	passOpen            []bool
	passCC, passDSM     []int64

	// Reorder-bounded buffer semantics (opt-in; see SetReorderBound). When
	// reorderBound > 0, wbAges[p*cacheStride+r] is the reorder distance of
	// the write process p currently buffers to r: how many of p's later
	// program-order operations have completed while the write sat in the
	// buffer. A rule-4 program step is suppressed while any buffered write
	// of the process has exhausted the bound, leaving commits (and crashes)
	// as the process's only moves until the write retires. Cells of
	// registers not currently buffered are stale and never read. Ages gate
	// enabledness, so they are behavioural state: the state-key encoding
	// includes them whenever the bound is active.
	reorderBound int
	wbAges       []uint8
	ageScratch   []Reg

	// Storage that Revert released, reused by later undo records (see
	// undo.go): interpreter states for rule-4 snapshots and crash
	// restarts, write buffers for crashes, and cache-presence rows for
	// crash undos. A configuration never shares it; Clone starts empty.
	spareProcs []*lang.ProcState
	spareBufs  []writeBuffer
	spareRows  [][]bool
}

// MaxReorderBound is the largest accepted reorder bound: ages are stored
// as bytes and never exceed the bound (the gate blocks further bumps), so
// one byte per (process, register) cell suffices.
const MaxReorderBound = 255

// NewConfig returns the initial configuration C_init for n processes
// executing progs (progs[p] is process p's program) under the given memory
// model and register layout. All registers hold 0 (the paper's ⊥) and all
// write buffers are empty.
func NewConfig(model Model, lay *Layout, progs []*lang.Program) (*Config, error) {
	n := len(progs)
	if n == 0 {
		return nil, errors.New("machine: no processes")
	}
	if lay == nil {
		lay = NewLayout()
	}
	stride := lay.Size()
	c := &Config{
		model:         model,
		n:             n,
		lay:           lay,
		mem:           make([]Value, stride),
		procs:         make([]*lang.ProcState, n),
		wbs:           make([]writeBuffer, n),
		cache:         make([]Value, n*stride),
		cacheKnown:    make([]bool, n*stride),
		cacheStride:   stride,
		lastCommitter: make([]int32, stride),
		memSumOK:      true, // all registers hold 0
		keyParts:      make([]hash128, 2*n),
		keyMark:       keyMark{p: allStale},
		stats:         NewStats(n),
	}
	for i := range c.lastCommitter {
		c.lastCommitter[i] = noCommitter
	}
	for p := 0; p < n; p++ {
		if progs[p] == nil {
			return nil, fmt.Errorf("machine: nil program for process %d", p)
		}
		c.procs[p] = lang.NewProcState(progs[p], p, n)
		c.wbs[p] = newBuffer(model)
	}
	return c, nil
}

// ensureReg grows the dense machine-level tables to cover register r. The
// invariant len(mem) == len(lastCommitter) == cacheStride always holds;
// growth re-strides the cache rows in place. Registers inside the layout
// never trigger growth — NewConfig sizes the tables to the layout.
func (c *Config) ensureReg(r Reg) {
	if int(r) < c.cacheStride {
		return
	}
	stride := c.cacheStride * 2
	if stride < int(r)+1 {
		stride = int(r) + 1
	}
	mem := make([]Value, stride)
	copy(mem, c.mem)
	lc := make([]int32, stride)
	copy(lc, c.lastCommitter)
	for i := len(c.lastCommitter); i < stride; i++ {
		lc[i] = noCommitter
	}
	cache := make([]Value, c.n*stride)
	known := make([]bool, c.n*stride)
	for p := 0; p < c.n; p++ {
		copy(cache[p*stride:], c.cache[p*c.cacheStride:(p+1)*c.cacheStride])
		copy(known[p*stride:], c.cacheKnown[p*c.cacheStride:(p+1)*c.cacheStride])
	}
	if c.wbAges != nil {
		ages := make([]uint8, c.n*stride)
		for p := 0; p < c.n; p++ {
			copy(ages[p*stride:], c.wbAges[p*c.cacheStride:(p+1)*c.cacheStride])
		}
		c.wbAges = ages
	}
	c.mem, c.lastCommitter, c.cache, c.cacheKnown, c.cacheStride = mem, lc, cache, known, stride
}

// memAt reads shared memory (0 for registers never committed, including
// registers beyond the dense tables).
func (c *Config) memAt(r Reg) Value {
	if r >= 0 && int(r) < len(c.mem) {
		return c.mem[r]
	}
	return 0
}

// cacheAt returns process p's cached value for r and whether one is known.
func (c *Config) cacheAt(p int, r Reg) (Value, bool) {
	if r < 0 || int(r) >= c.cacheStride {
		return 0, false
	}
	i := p*c.cacheStride + int(r)
	return c.cache[i], c.cacheKnown[i]
}

// setCache records that process p knows value v for register r.
func (c *Config) setCache(p int, r Reg, v Value) {
	c.ensureReg(r)
	i := p*c.cacheStride + int(r)
	c.cache[i] = v
	c.cacheKnown[i] = true
}

// lastCommitterOf returns the last process to commit to r, if any.
func (c *Config) lastCommitterOf(r Reg) (int, bool) {
	if r >= 0 && int(r) < len(c.lastCommitter) {
		if lc := c.lastCommitter[r]; lc != noCommitter {
			return int(lc), true
		}
	}
	return 0, false
}

// Clone returns an independent deep copy of the configuration (statistics
// included, trace not: the clone starts with recording disabled). The
// copy carries neither the memory sum nor the key cache, so its key is
// computed from scratch.
func (c *Config) Clone() *Config {
	d := &Config{
		model:         c.model,
		n:             c.n,
		lay:           c.lay,
		accounting:    c.accounting,
		faults:        c.faults, // plans are immutable once installed
		steps:         c.steps,
		reorderBound:  c.reorderBound,
		mem:           append([]Value(nil), c.mem...),
		procs:         make([]*lang.ProcState, c.n),
		wbs:           make([]writeBuffer, c.n),
		cache:         append([]Value(nil), c.cache...),
		cacheKnown:    append([]bool(nil), c.cacheKnown...),
		cacheStride:   c.cacheStride,
		lastCommitter: append([]int32(nil), c.lastCommitter...),
		keyParts:      make([]hash128, 2*c.n),
		keyMark:       keyMark{p: allStale},
		stats:         c.stats.Clone(),
	}
	if c.passEnabled {
		d.passEnabled, d.passEnter, d.passExit, d.passLog = true, c.passEnter, c.passExit, c.passLog
		d.passOpen = append([]bool(nil), c.passOpen...)
		d.passCC = append([]int64(nil), c.passCC...)
		d.passDSM = append([]int64(nil), c.passDSM...)
	}
	if c.wbAges != nil {
		d.wbAges = append([]uint8(nil), c.wbAges...)
	}
	for p := 0; p < c.n; p++ {
		d.procs[p] = c.procs[p].Clone()
		d.wbs[p] = c.wbs[p].clone()
	}
	return d
}

// N returns the number of processes.
func (c *Config) N() int { return c.n }

// Model returns the memory model the configuration runs under.
func (c *Config) Model() Model { return c.model }

// Layout returns the register layout.
func (c *Config) Layout() *Layout { return c.lay }

// Stats returns the configuration's cost counters.
func (c *Config) Stats() *Stats { return c.stats }

// SetTrace installs (or, with nil, removes) a step recorder.
func (c *Config) SetTrace(t *Trace) { c.trace = t }

// Trace returns the installed step recorder, if any.
func (c *Config) Trace() *Trace { return c.trace }

// Register returns the current shared-memory value of r (0 if never
// committed).
func (c *Config) Register(r Reg) Value { return c.memAt(r) }

// SetRegister initializes register r to v. Intended for test setup before
// any steps are taken. Negative registers are rejected as a no-op (they
// are not part of the register namespace).
func (c *Config) SetRegister(r Reg, v Value) {
	if r < 0 {
		return
	}
	c.ensureReg(r)
	c.setMem(r, v)
}

// Proc returns process p's live interpreter state. It stays valid until
// the next step or revert of the configuration: Revert swaps the
// pre-step snapshot back in and recycles the state it replaces as storage
// for a later snapshot, so callers must not hold the pointer across steps.
func (c *Config) Proc(p int) *lang.ProcState { return c.procs[p] }

// Halted reports whether process p is in a final state.
func (c *Config) Halted(p int) bool { return c.procs[p].Halted() }

// AllHalted reports whether every process is in a final state.
func (c *Config) AllHalted() bool {
	for _, ps := range c.procs {
		if !ps.Halted() {
			return false
		}
	}
	return true
}

// ReturnValue returns process p's final value (only meaningful once p has
// halted).
func (c *Config) ReturnValue(p int) Value { return c.procs[p].ReturnValue() }

// NbFinal returns the number of processes in a final state (the paper's
// NbFinal(C)).
func (c *Config) NbFinal() int {
	k := 0
	for _, ps := range c.procs {
		if ps.Halted() {
			k++
		}
	}
	return k
}

// BufferLen returns the number of buffered writes of process p.
func (c *Config) BufferLen(p int) int { return c.wbs[p].len() }

// BufferRegs returns the registers buffered by process p, ascending.
func (c *Config) BufferRegs(p int) []Reg { return c.wbs[p].regs() }

// AppendBufferRegs appends the registers buffered by process p (ascending)
// to dst without allocating a fresh slice — the explorers' successor-
// enumeration hot path.
func (c *Config) AppendBufferRegs(p int, dst []Reg) []Reg {
	return c.wbs[p].appendRegs(dst)
}

// BufferLookup returns the buffered value process p holds for r, if any.
func (c *Config) BufferLookup(p int, r Reg) (Value, bool) { return c.wbs[p].lookup(r) }

// CanCommit reports whether process p currently has a committable buffered
// write to r (under TSO this additionally requires r to be the FIFO head).
func (c *Config) CanCommit(p int, r Reg) bool { return c.wbs[p].canCommit(r) }

// NextOp returns the operation process p is poised to execute — the paper's
// next_p(C) — with ok=false when p is in a final state.
func (c *Config) NextOp(p int) (lang.Op, bool, error) { return c.procs[p].NextOp() }

// SetReorderBound installs reorder-bounded buffer semantics: each buffered
// write may reorder past at most k of its own process's later program-order
// operations before the process's program steps are suppressed (commits and
// crashes stay enabled, so the write can always retire). k <= 0 removes the
// bound; k is clamped to MaxReorderBound. Under SC the call is an honest
// no-op (ReorderBound stays 0): SC commits writes in-step, so its buffers
// are always empty and the bound can never fire. Install before stepping —
// the bound is part of the machine's behaviour, and configurations running
// different bounds must never share a visited set (the bound changes which
// states are reachable, and ages enter the key encoding only while a bound
// is active).
func (c *Config) SetReorderBound(k int) {
	// Ages enter the buffer components only while a bound is active, so
	// every cached component is suspect, and so is every component an
	// undo record kept from before this call.
	c.keyMark = keyMark{p: allStale}
	c.keyEpoch++
	if k <= 0 || c.model == SC {
		c.reorderBound, c.wbAges = 0, nil
		return
	}
	if k > MaxReorderBound {
		k = MaxReorderBound
	}
	c.reorderBound = k
	if c.wbAges == nil {
		c.wbAges = make([]uint8, c.n*c.cacheStride)
	}
}

// ReorderBound returns the installed reorder bound (0 = unbounded).
func (c *Config) ReorderBound() int { return c.reorderBound }

// reorderBlocked reports whether a rule-4 program step of process p is
// suppressed because some write p still buffers has exhausted the reorder
// bound. Buffered registers are always inside the dense tables (buffering
// goes through setCache, which grows them), so the row index is safe.
func (c *Config) reorderBlocked(p int) bool {
	if c.reorderBound <= 0 || c.wbs[p].len() == 0 {
		return false
	}
	c.ageScratch = c.wbs[p].appendRegs(c.ageScratch[:0])
	row := c.wbAges[p*c.cacheStride:]
	for _, r := range c.ageScratch {
		if int(row[r]) >= c.reorderBound {
			return true
		}
	}
	return false
}

// bumpAges charges one unit of reorder distance to every write process p
// still buffers — called once per taken rule-4 program step, before the
// step's own buffering (a coalescing write passes its register as skip and
// resets that entry instead; reads and returns pass skip = -1). The gate in
// step() runs first, so no age ever exceeds the bound. No-op unless a
// reorder bound is active and the buffer is non-empty.
func (c *Config) bumpAges(p int, skip Reg, u *Undo) {
	if c.reorderBound <= 0 || c.wbs[p].len() == 0 {
		return
	}
	c.ageScratch = c.wbs[p].appendRegs(c.ageScratch[:0])
	row := c.wbAges[p*c.cacheStride:]
	bumped := false
	for _, r := range c.ageScratch {
		if r == skip {
			continue
		}
		row[r]++
		bumped = true
	}
	if !bumped {
		return
	}
	c.touch(p, partBuf)
	if u != nil {
		u.agesBumped = true
		u.agesSkip = skip
	}
}

// PoisedAtFence reports whether process p's next operation is fence().
func (c *Config) PoisedAtFence(p int) bool {
	op, ok, err := c.procs[p].NextOp()
	return err == nil && ok && op.Kind == lang.OpFence
}

// Step executes the schedule element e and returns the resulting step
// record. took=false means the element produced the empty execution (the
// process was already in a final state).
func (c *Config) Step(e Elem) (rec StepRecord, took bool, err error) {
	return c.step(e, nil)
}

// step is the shared implementation of Step and StepInto: when u is
// non-nil, every mutation is recorded into it so Undo.Revert can restore
// the exact prior configuration.
func (c *Config) step(e Elem, u *Undo) (rec StepRecord, took bool, err error) {
	p := e.P
	if p < 0 || p >= c.n {
		return StepRecord{}, false, fmt.Errorf("%w: %d", ErrBadPID, p)
	}
	if e.Crash {
		return c.crashStep(p, u)
	}
	ps := c.procs[p]
	if ps.Halted() {
		return StepRecord{}, false, nil
	}

	// Rule 2: the element names a register with a committable write (and
	// no stall window suspends it).
	if e.HasReg && c.wbs[p].canCommit(e.Reg) && !c.faults.stalled(p, e.Reg, c.steps) {
		return c.commitStep(p, e.Reg, u), true, nil
	}

	op, ok, err := ps.NextOp()
	if err != nil {
		return StepRecord{}, false, err
	}
	if !ok {
		return StepRecord{}, false, nil
	}

	// Rule 3: blocked at a fence with a non-empty buffer — drain, unless
	// every drain candidate is suspended by a stall window (then the
	// element produces no step: the store queue is stalled). A TAS is an
	// implicit fence: the atomic read-modify-write is ordered after every
	// buffered write on all models here, so it drains the same way.
	if (op.Kind == lang.OpFence || op.Kind == lang.OpTAS) && c.wbs[p].len() > 0 {
		r, can := c.drainCandidate(p)
		if !can {
			return StepRecord{}, false, nil
		}
		return c.commitStep(p, r, u), true, nil
	}

	// Reorder bound: while any write still buffered by p has exhausted its
	// reorder budget, p's program steps produce no step — commits (rules
	// 2/3 above) and crashes remain p's only moves until the write retires.
	if c.reorderBlocked(p) {
		return StepRecord{}, false, nil
	}

	// Rule 4: perform the pending program operation. These arms mutate the
	// process's interpreter state in place, so the undo log snapshots it
	// first, into recycled storage (commit steps above never touch it —
	// NextOp settled it, and settling is behaviour-invariant).
	if u != nil {
		u.prevProc = c.spareProc()
		u.prevProc.CopyFrom(ps)
	}
	c.touch(p, partProc)
	switch op.Kind {
	case lang.OpRead:
		return c.readStep(p, op, u)
	case lang.OpWrite:
		return c.writeStep(p, op, u)
	case lang.OpTAS:
		return c.tasStep(p, op, u)
	case lang.OpFence:
		if err := ps.CompleteFence(); err != nil {
			return StepRecord{}, false, err
		}
		c.stats.Fences[p]++
		c.stats.Steps[p]++
		c.steps++
		rec = StepRecord{P: p, Kind: StepFence, SegOwner: NoOwner}
		c.trace.append(rec)
		return rec, true, nil
	case lang.OpReturn:
		if err := ps.CompleteReturn(); err != nil {
			return StepRecord{}, false, err
		}
		c.bumpAges(p, -1, u)
		c.stats.Steps[p]++
		c.steps++
		rec = StepRecord{P: p, Kind: StepReturn, Val: op.Val, SegOwner: NoOwner}
		c.trace.append(rec)
		return rec, true, nil
	default:
		return StepRecord{}, false, fmt.Errorf("machine: process %d poised at unknown op %v", p, op)
	}
}

// drainCandidate picks the register drained when process p is blocked at a
// fence: the model's canonical choice (smallest register under PSO, FIFO
// head under TSO), skipping stalled registers where the discipline allows
// it. can=false means every candidate is suspended by a stall window.
func (c *Config) drainCandidate(p int) (r Reg, can bool) {
	if c.faults == nil || len(c.faults.Stalls) == 0 {
		return c.wbs[p].drainNext(), true
	}
	if c.model == TSO {
		// FIFO: only the head may commit.
		r = c.wbs[p].drainNext()
		return r, !c.faults.stalled(p, r, c.steps)
	}
	for _, cand := range c.wbs[p].regs() {
		if !c.faults.stalled(p, cand, c.steps) {
			return cand, true
		}
	}
	return 0, false
}

// commitStep commits process p's buffered write to r and classifies it.
func (c *Config) commitStep(p int, r Reg, u *Undo) StepRecord {
	w := c.wbs[p].commit(r)
	c.touch(p, partBuf)
	c.ensureReg(w.Reg)
	if u != nil {
		u.bufOp = bufUncommit
		u.bufWrite = w
		u.memTouched = true
		u.memReg = w.Reg
		u.memPrev = c.mem[w.Reg]
		u.lcTouched = true
		u.lcReg = w.Reg
		u.lcPrev = c.lastCommitter[w.Reg]
	}
	c.setMem(w.Reg, w.Val)

	owner := c.lay.Owner(w.Reg)
	last, seen := c.lastCommitterOf(w.Reg)
	wasLast := seen && last == p
	remote := c.classifyCommit(owner == p, wasLast)
	c.lastCommitter[w.Reg] = int32(p)

	c.stats.Commits[p]++
	c.stats.Steps[p]++
	c.steps++
	if remote {
		c.stats.RemoteCommits[p]++
		c.stats.RMRs[p]++
	}
	c.passageAccount(p, w.Reg, !wasLast, owner != p)
	rec := StepRecord{P: p, Kind: StepCommit, Reg: w.Reg, Val: w.Val, Remote: remote, SegOwner: owner}
	c.trace.append(rec)
	return rec
}

// readStep serves process p's pending read and classifies it.
func (c *Config) readStep(p int, op lang.Op, u *Undo) (StepRecord, bool, error) {
	r := op.Reg
	if r < 0 {
		return StepRecord{}, false, fmt.Errorf("%w: p%d read(R%d)", ErrBadReg, p, r)
	}
	owner := c.lay.Owner(r)

	var (
		val        Value
		fromMemory bool
		remote     bool
	)
	if v, buffered := c.wbs[p].lookup(r); buffered {
		// Served from the process's own write buffer: local, does not
		// touch shared memory.
		val, fromMemory, remote = v, false, false
	} else {
		val = c.memAt(r)
		fromMemory = true
		cached, known := c.cacheAt(p, r)
		hit := known && cached == val
		remote = c.classifyRead(owner == p, hit)
		if c.passEnabled {
			switch r {
			case c.passEnter:
				// Re-reading the entry probe after a crash continues the
				// open super-passage rather than starting a fresh one.
				if !c.passOpen[p] {
					c.passOpen[p] = true
					c.passCC[p], c.passDSM[p] = 0, 0
				}
			case c.passExit:
				if c.passOpen[p] {
					c.passOpen[p] = false
					c.passLog.record(c.passCC[p], c.passDSM[p])
				}
			default:
				c.passageAccount(p, r, !hit, owner != p)
			}
		}
	}
	if u != nil {
		u.cacheTouched = true
		u.cacheReg = r
		u.cachePrev, u.cachePrevKnown = c.cacheAt(p, r)
	}
	c.setCache(p, r, val)
	c.bumpAges(p, -1, u)

	if err := c.procs[p].CompleteRead(val); err != nil {
		return StepRecord{}, false, err
	}
	c.stats.Reads[p]++
	c.stats.Steps[p]++
	c.steps++
	if remote {
		c.stats.RemoteReads[p]++
		c.stats.RMRs[p]++
	}
	rec := StepRecord{P: p, Kind: StepRead, Reg: r, Val: val, FromMemory: fromMemory, Remote: remote, SegOwner: owner}
	c.trace.append(rec)
	return rec, true, nil
}

// writeStep buffers process p's pending write (and, under SC, commits it
// within the same step).
func (c *Config) writeStep(p int, op lang.Op, u *Undo) (StepRecord, bool, error) {
	r, v := op.Reg, op.Val
	if r < 0 {
		return StepRecord{}, false, fmt.Errorf("%w: p%d write(R%d)", ErrBadReg, p, r)
	}
	owner := c.lay.Owner(r)

	if err := c.procs[p].CompleteWrite(); err != nil {
		return StepRecord{}, false, err
	}
	if u != nil {
		u.cacheTouched = true
		u.cacheReg = r
		u.cachePrev, u.cachePrevKnown = c.cacheAt(p, r)
	}
	c.setCache(p, r, v)
	// The buffered writes that predate this one each reorder past it; the
	// write's own (possibly coalesced) entry restarts at distance zero.
	c.bumpAges(p, r, u)
	c.stats.Writes[p]++
	c.stats.Steps[p]++
	c.steps++

	if c.model == SC {
		// Atomic write: the write reaches memory immediately. The step is
		// classified by the commit rule (out-of-segment and not the last
		// committer ⇒ remote), so SC cost accounting matches the usual
		// DSM/CC conventions.
		if u != nil {
			u.memTouched = true
			u.memReg = r
			u.memPrev = c.mem[r]
			u.lcTouched = true
			u.lcReg = r
			u.lcPrev = c.lastCommitter[r]
		}
		c.setMem(r, v)
		last, seen := c.lastCommitterOf(r)
		wasLast := seen && last == p
		remote := c.classifyCommit(owner == p, wasLast)
		c.lastCommitter[r] = int32(p)
		c.stats.Commits[p]++
		if remote {
			c.stats.RemoteCommits[p]++
			c.stats.RMRs[p]++
		}
		c.passageAccount(p, r, !wasLast, owner != p)
		rec := StepRecord{P: p, Kind: StepWrite, Reg: r, Val: v, Remote: remote, SegOwner: owner}
		c.trace.append(rec)
		return rec, true, nil
	}

	w := Write{Reg: r, Val: v}
	replaced, old := c.wbs[p].put(w)
	c.touch(p, partBuf)
	if u != nil {
		u.bufOp = bufUnput
		u.bufWrite = w
		u.bufReplaced = replaced
		u.bufOld = old
	}
	if c.reorderBound > 0 {
		if u != nil {
			u.agePutTouched = true
			u.agePutReg = r
			u.agePutPrev = c.wbAges[p*c.cacheStride+int(r)]
		}
		c.wbAges[p*c.cacheStride+int(r)] = 0
	}
	rec := StepRecord{P: p, Kind: StepWrite, Reg: r, Val: v, SegOwner: owner}
	c.trace.append(rec)
	return rec, true, nil
}

// tasStep performs process p's pending atomic test-and-set: read r, store
// Val iff the old value was 0, deliver the old value to the process — all
// in one indivisible step. The rule-3 arm in step() guarantees the
// process's write buffer is empty by the time this runs (a TAS drains
// like a fence), so no buffered write can shadow the read. Cost-wise a
// TAS is a commit: it takes the cache line exclusively whether or not the
// stored value changes, so a failed TAS is still charged by the
// last-committer rule.
func (c *Config) tasStep(p int, op lang.Op, u *Undo) (StepRecord, bool, error) {
	r, v := op.Reg, op.Val
	if r < 0 {
		return StepRecord{}, false, fmt.Errorf("%w: p%d tas(R%d)", ErrBadReg, p, r)
	}
	c.ensureReg(r)
	owner := c.lay.Owner(r)
	old := c.mem[r]
	if u != nil {
		u.memTouched = true
		u.memReg = r
		u.memPrev = old
		u.lcTouched = true
		u.lcReg = r
		u.lcPrev = c.lastCommitter[r]
		u.cacheTouched = true
		u.cacheReg = r
		u.cachePrev, u.cachePrevKnown = c.cacheAt(p, r)
	}
	newVal := old
	if old == 0 {
		newVal = v
		c.setMem(r, v)
	}
	last, seen := c.lastCommitterOf(r)
	wasLast := seen && last == p
	remote := c.classifyCommit(owner == p, wasLast)
	c.lastCommitter[r] = int32(p)
	c.setCache(p, r, newVal)
	if err := c.procs[p].CompleteTas(old); err != nil {
		return StepRecord{}, false, err
	}
	c.stats.Commits[p]++
	c.stats.Steps[p]++
	c.steps++
	if remote {
		c.stats.RemoteCommits[p]++
		c.stats.RMRs[p]++
	}
	c.passageAccount(p, r, !wasLast, owner != p)
	rec := StepRecord{P: p, Kind: StepTas, Reg: r, Val: old, Remote: remote, SegOwner: owner}
	c.trace.append(rec)
	return rec, true, nil
}

// Exec runs the schedule σ from the current configuration, stopping early
// on interpreter errors. It returns the number of elements that produced a
// step.
func (c *Config) Exec(sched Schedule) (steps int, err error) {
	for _, e := range sched {
		_, took, err := c.Step(e)
		if err != nil {
			return steps, err
		}
		if took {
			steps++
		}
	}
	return steps, nil
}

// RunSolo repeatedly schedules (p, ⊥) until process p halts or maxSteps
// elements have been consumed. It reports whether p reached a final state.
// This realizes the paper's "p-only schedule" used by weak obstruction-
// freedom and by the encoder's enabledness checks.
func (c *Config) RunSolo(p int, maxSteps int) (halted bool, err error) {
	for i := 0; i < maxSteps; i++ {
		if c.procs[p].Halted() {
			return true, nil
		}
		if _, _, err := c.Step(PBottom(p)); err != nil {
			return false, err
		}
	}
	return c.procs[p].Halted(), nil
}
