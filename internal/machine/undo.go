package machine

import "tradingfences/internal/lang"

// Reversible stepping. StepInto executes a schedule element in place —
// no configuration clone — and fills an Undo that restores the exact
// prior configuration, SPIN-style: the depth-first explorers step along an
// edge, recurse, and revert on backtrack, paying a handful of cell writes
// per edge instead of a deep copy per candidate.
//
// One step touches a bounded set of machine-level state: at most one
// memory cell, one knowledge-cache cell, one last-committer entry, one
// write-buffer entry, the stepping process's interpreter state, that
// process's statistics row and the global step clock. The undo log records
// the prior value of exactly those cells. A crash step is the one bulk
// mutation (it wipes the process's buffer and cache row), so its undo
// keeps the replaced buffer and a copy of the row's presence bits.
//
// Undo records allocate nothing once a configuration is warm. What a
// Revert throws away — the stepping process's post-step interpreter
// state, a crash's restarted state and emptied buffer, a crash undo's
// presence-row copy — goes to the configuration's spare storage, and the
// next snapshot or crash takes from it. A rule-4 snapshot is a
// lang.ProcState.CopyFrom of the live state into spare storage, and
// Revert swaps it back in, so the state Config.Proc returns is valid only
// until the next step or revert of the configuration.
//
// Like Step, StepInto may settle the stepping process's pending local
// computation before deciding which rule fires; Revert does not unsettle
// it. Settling is behaviour-invariant (state keys, fingerprints and
// occupancy are identical before and after), so a reverted configuration
// is bit-identical to the original in every observable: StateKey, Stats,
// occupancy, write-buffer contents and RMR-classification state.

// bufUndoOp says how Revert restores the stepping process's write buffer.
type bufUndoOp uint8

const (
	bufNone     bufUndoOp = iota
	bufUncommit           // the step committed bufWrite; re-insert it
	bufUnput              // the step buffered bufWrite; remove or un-coalesce it
)

// Undo records the mutations of one taken step. The zero value is inert:
// Revert on it is a no-op, so callers may unconditionally revert the undo
// of an element that produced no step. An Undo is single-shot and must be
// reverted in LIFO order with any later undos of the same configuration.
// StepInto fills a record the caller owns, so explorers step straight
// into a slot of their undo trail; the record's single-byte fields sit
// together at its end to keep it compact.
type Undo struct {
	c *Config

	// Interpreter state of the stepping process before a rule-4 program
	// step (commit steps never touch it): a copy into recycled storage,
	// swapped back in by Revert. For a crash step this is the pre-crash
	// state itself: crashStep replaces the pointer, leaving the old value
	// intact.
	prevProc *lang.ProcState

	// One shared-memory cell (memTouched).
	memReg  Reg
	memPrev Value

	// One knowledge-cache cell of process p (cacheTouched).
	cacheReg  Reg
	cachePrev Value

	// One last-committer entry (lcTouched).
	lcReg Reg

	// One write-buffer entry of process p (bufOp).
	bufWrite Write
	bufOld   Value

	// Reorder-age mutations of process p (only under an active reorder
	// bound): a rule-4 program step bumps every buffered register's age
	// except agesSkip (agesBumped), and a buffering write additionally
	// resets its own entry (agePutReg) after saving the stale byte
	// (agePutTouched). Crashes never touch ages — the wiped buffer's cells
	// simply go stale — so the crash branch needs no age restore.
	agesSkip  Reg
	agePutReg Reg

	// Crash-only bulk state: the replaced write buffer (kept, not copied —
	// crashStep installs an empty recycled one) and a copy of the cache
	// row's presence bits (a crash clears them; the value cells are
	// untouched).
	prevBuf        writeBuffer
	prevCacheKnown []bool

	// Statistics row of process p, the global step clock, and the trace
	// high-water mark.
	statsPrev    [statsCounters]int64
	stepsPrev    int64
	tracePrevLen int

	// Passage window of process p (only its own window can change in one
	// step). The shared PassageLog is a watermark over the explored tree
	// and is deliberately not rolled back.
	passPrevCC  int64
	passPrevDSM int64

	// The key cache as the step found it: p's process and buffer
	// components, the stale mark, and the SetReorderBound epoch they were
	// hashed under.
	keyParts [2]hash128
	keyMark  keyMark
	keyEpoch uint32

	p      int32
	lcPrev int32

	valid          bool
	memTouched     bool
	cacheTouched   bool
	cachePrevKnown bool
	lcTouched      bool
	bufOp          bufUndoOp
	bufReplaced    bool
	agesBumped     bool
	agePutTouched  bool
	agePutPrev     uint8
	crashed        bool
	passPrevOpen   bool
}

// StepInto executes the schedule element e in place, exactly like Step,
// and records into u what Revert needs to restore the prior
// configuration. u may hold an earlier record, reverted or never valid;
// StepInto overwrites it. When the element produces no step (took=false)
// or an error, the configuration is unchanged (modulo behaviour-invariant
// settling) and u is left inert.
func (c *Config) StepInto(e Elem, u *Undo) (rec StepRecord, took bool, err error) {
	u.c, u.p, u.prevProc = c, int32(e.P), nil
	u.memTouched, u.cacheTouched, u.lcTouched, u.crashed = false, false, false, false
	u.bufOp, u.agesBumped, u.agePutTouched = bufNone, false, false
	if e.P >= 0 && e.P < c.n {
		u.stepsPrev = c.steps
		u.tracePrevLen = c.trace.Len()
		c.stats.snapshotRow(e.P, &u.statsPrev)
		if c.passEnabled {
			u.passPrevOpen = c.passOpen[e.P]
			u.passPrevCC = c.passCC[e.P]
			u.passPrevDSM = c.passDSM[e.P]
		}
		u.keyParts = [2]hash128{c.keyParts[2*e.P], c.keyParts[2*e.P+1]}
		u.keyMark, u.keyEpoch = c.keyMark, c.keyEpoch
	}
	rec, took, err = c.step(e, u)
	u.valid = took && err == nil
	return rec, took, err
}

// StepUndo is StepInto returning the record by value.
func (c *Config) StepUndo(e Elem) (rec StepRecord, took bool, u Undo, err error) {
	rec, took, err = c.StepInto(e, &u)
	return rec, took, u, err
}

// Revert restores the configuration to its state before the step that
// produced this undo. No-op on an inert (zero or already-reverted) Undo.
func (u *Undo) Revert() {
	if !u.valid {
		return
	}
	u.valid = false
	c, p := u.c, int(u.p)

	// The states and buffers this revert replaces go back to the
	// configuration's spare storage; only the live ones can be replaced,
	// since every snapshot is owned by exactly one undo record.
	if u.prevProc != nil {
		c.spareProcs = append(c.spareProcs, c.procs[p])
		c.procs[p] = u.prevProc
	}
	if u.crashed {
		c.spareBufs = append(c.spareBufs, c.wbs[p])
		c.wbs[p] = u.prevBuf
		copy(c.cacheKnown[p*c.cacheStride:(p+1)*c.cacheStride], u.prevCacheKnown)
		c.spareRows = append(c.spareRows, u.prevCacheKnown)
	} else {
		switch u.bufOp {
		case bufUncommit:
			c.wbs[p].uncommit(u.bufWrite)
		case bufUnput:
			c.wbs[p].unput(u.bufWrite, u.bufReplaced, u.bufOld)
		}
		if u.agePutTouched {
			c.wbAges[p*c.cacheStride+int(u.agePutReg)] = u.agePutPrev
		}
		if u.agesBumped {
			// The buffer restore above re-established the pre-step buffered
			// set — exactly the registers the step bumped (minus agesSkip).
			c.ageScratch = c.wbs[p].appendRegs(c.ageScratch[:0])
			row := c.wbAges[p*c.cacheStride:]
			for _, r := range c.ageScratch {
				if r != u.agesSkip {
					row[r]--
				}
			}
		}
		if u.memTouched {
			c.setMem(u.memReg, u.memPrev)
		}
		if u.cacheTouched {
			i := p*c.cacheStride + int(u.cacheReg)
			c.cache[i] = u.cachePrev
			c.cacheKnown[i] = u.cachePrevKnown
		}
		if u.lcTouched {
			c.lastCommitter[u.lcReg] = u.lcPrev
		}
	}

	// The key cache: p's components and the stale mark go back to what
	// the step found, unless SetReorderBound redefined the buffer
	// components since.
	if u.keyEpoch == c.keyEpoch {
		c.setPart(2*p, u.keyParts[0])
		c.setPart(2*p+1, u.keyParts[1])
		c.keyMark = u.keyMark
	} else {
		c.keyMark = keyMark{p: allStale}
	}

	c.stats.restoreRow(p, &u.statsPrev)
	c.steps = u.stepsPrev
	c.trace.truncate(u.tracePrevLen)
	if c.passEnabled {
		c.passOpen[p] = u.passPrevOpen
		c.passCC[p] = u.passPrevCC
		c.passDSM[p] = u.passPrevDSM
	}
}

// spareProc returns interpreter-state storage released by an earlier
// Revert, or a new state when there is none. Its contents are stale: the
// caller overwrites them (CopyFrom, CrashRestart).
func (c *Config) spareProc() *lang.ProcState {
	n := len(c.spareProcs)
	if n == 0 {
		return new(lang.ProcState)
	}
	ps := c.spareProcs[n-1]
	c.spareProcs = c.spareProcs[:n-1]
	return ps
}

// spareBuffer returns an empty write buffer for the configuration's
// model, recycled when a Revert released one.
func (c *Config) spareBuffer() writeBuffer {
	n := len(c.spareBufs)
	if n == 0 {
		return newBuffer(c.model)
	}
	b := c.spareBufs[n-1]
	c.spareBufs = c.spareBufs[:n-1]
	b.reset()
	return b
}

// spareRow returns an empty cache-presence row with recycled capacity.
func (c *Config) spareRow() []bool {
	n := len(c.spareRows)
	if n == 0 {
		return nil
	}
	r := c.spareRows[n-1]
	c.spareRows = c.spareRows[:n-1]
	return r[:0]
}
