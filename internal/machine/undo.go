package machine

import "tradingfences/internal/lang"

// Reversible stepping. StepUndo executes a schedule element in place —
// no configuration clone — and returns an Undo that restores the exact
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
// Like Step, StepUndo may settle the stepping process's pending local
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
// returned by StepUndo even when the element produced no step. An Undo is
// single-shot and must be reverted in LIFO order with any later undos of
// the same configuration.
type Undo struct {
	c *Config
	p int

	valid bool

	// Interpreter state of the stepping process before a rule-4 program
	// step (commit steps never touch it): a copy into recycled storage,
	// swapped back in by Revert. For a crash step this is the pre-crash
	// state itself: crashStep replaces the pointer, leaving the old value
	// intact.
	prevProc *lang.ProcState

	// One shared-memory cell.
	memTouched bool
	memReg     Reg
	memPrev    Value

	// One knowledge-cache cell of process p.
	cacheTouched   bool
	cacheReg       Reg
	cachePrev      Value
	cachePrevKnown bool

	// One last-committer entry.
	lcTouched bool
	lcReg     Reg
	lcPrev    int32

	// One write-buffer entry of process p.
	bufOp       bufUndoOp
	bufWrite    Write
	bufReplaced bool
	bufOld      Value

	// Reorder-age mutations of process p (only under an active reorder
	// bound): a rule-4 program step bumps every buffered register's age
	// except agesSkip, and a buffering write additionally resets its own
	// entry (agePutReg) after saving the stale byte. Crashes never touch
	// ages — the wiped buffer's cells simply go stale — so the crash branch
	// needs no age restore.
	agesBumped    bool
	agesSkip      Reg
	agePutTouched bool
	agePutReg     Reg
	agePutPrev    uint8

	// Crash-only bulk state: the replaced write buffer (kept, not copied —
	// crashStep installs an empty recycled one) and a copy of the cache
	// row's presence bits (a crash clears them; the value cells are
	// untouched).
	crashed        bool
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
	passPrevOpen bool
	passPrevCC   int64
	passPrevDSM  int64
}

// StepUndo executes the schedule element e in place, exactly like Step,
// and additionally returns an Undo whose Revert restores the prior
// configuration. When the element produces no step (took=false) or an
// error, the configuration is unchanged (modulo behaviour-invariant
// settling) and the returned Undo is inert.
func (c *Config) StepUndo(e Elem) (rec StepRecord, took bool, u Undo, err error) {
	u.c = c
	u.p = e.P
	if e.P >= 0 && e.P < c.n {
		u.stepsPrev = c.steps
		u.tracePrevLen = c.trace.Len()
		c.stats.snapshotRow(e.P, &u.statsPrev)
		if c.passEnabled {
			u.passPrevOpen = c.passOpen[e.P]
			u.passPrevCC = c.passCC[e.P]
			u.passPrevDSM = c.passDSM[e.P]
		}
	}
	rec, took, err = c.step(e, &u)
	u.valid = took && err == nil
	if !u.valid {
		u = Undo{}
	}
	return rec, took, u, err
}

// Revert restores the configuration to its state before the step that
// produced this undo. No-op on an inert (zero or already-reverted) Undo.
func (u *Undo) Revert() {
	if !u.valid {
		return
	}
	u.valid = false
	c, p := u.c, u.p

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
			c.wbs[p].dropKey()
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
			c.wbs[p].dropKey()
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
