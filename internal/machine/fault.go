package machine

import (
	"fmt"
	"sort"
)

// This file implements the machine's fault model, the crash-fault
// substitution of Chan & Woelfel's recoverable mutual exclusion (RME)
// setting for the paper's crash-free machine:
//
//   - A crash step Crash(p) — schedule element (p, !) — wipes process p's
//     volatile state: its write buffer (buffered writes are lost, exactly
//     the RME store-buffer crash semantics), its interpreter state (p
//     restarts its program from the initial state) and its knowledge cache
//     (a restarted process re-fetches every register, so its first read of
//     any register is a cache miss again). Shared memory, the
//     last-committer table and all cost counters survive: crashes are
//     process-local events, and RMR/fence accounting stays step-exact
//     across them.
//
//   - A FaultPlan bundles deterministic fault injections that any runner,
//     checker or replayer can drive: crash points (woven into a schedule as
//     crash elements) and commit-stall windows (the system refuses to
//     commit a process's buffered writes while the configuration's global
//     step count lies inside the window — a stalled store queue / delayed
//     commit).

// CrashPoint schedules a crash of process P before the schedule element at
// index At (0 inserts the crash before the first element). Used by
// FaultPlan.Instrument to weave deterministic crashes into a schedule;
// adversarial (exploratory) crashes are driven by the checker instead.
type CrashPoint struct {
	P  int   `json:"p"`
	At int64 `json:"at"`
}

// StallWindow suspends commits by process P while the configuration's
// total step count lies in [From, To): schedule elements that would commit
// one of P's buffered writes produce no step instead, and a fence by P
// cannot drain. Reg restricts the stall to a single register when >= 0
// (a commit-delay for that register); Reg < 0 stalls P's whole buffer.
type StallWindow struct {
	P    int   `json:"p"`
	Reg  Reg   `json:"reg"` // -1 = entire buffer
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// FaultPlan describes the faults injected into an execution. The zero
// value (and a nil *FaultPlan) injects nothing. Plans are treated as
// immutable once installed on a configuration; Clone before mutating.
type FaultPlan struct {
	// Crashes are deterministic crash points, consumed by Instrument.
	Crashes []CrashPoint `json:"crashes,omitempty"`
	// Stalls are commit-stall windows, enforced by the configuration
	// itself (install with Config.SetFaultPlan).
	Stalls []StallWindow `json:"stalls,omitempty"`
	// MaxCrashes is the adversarial crash budget for exploratory checking:
	// the model checker may inject up to MaxCrashes crash steps at points
	// of its choosing. It has no effect on deterministic replay (where
	// crashes are ordinary schedule elements).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// Empty reports whether the plan injects nothing (nil-safe).
func (fp *FaultPlan) Empty() bool {
	return fp == nil || (len(fp.Crashes) == 0 && len(fp.Stalls) == 0 && fp.MaxCrashes == 0)
}

// Clone returns an independent deep copy (nil-safe).
func (fp *FaultPlan) Clone() *FaultPlan {
	if fp == nil {
		return nil
	}
	return &FaultPlan{
		Crashes:    append([]CrashPoint(nil), fp.Crashes...),
		Stalls:     append([]StallWindow(nil), fp.Stalls...),
		MaxCrashes: fp.MaxCrashes,
	}
}

// Validate rejects plans that no configuration of n processes could
// execute: out-of-range process ids, negative indices, or inverted stall
// windows.
func (fp *FaultPlan) Validate(n int) error {
	if fp == nil {
		return nil
	}
	for _, cp := range fp.Crashes {
		if cp.P < 0 || cp.P >= n {
			return fmt.Errorf("machine: crash point names process %d of %d", cp.P, n)
		}
		if cp.At < 0 {
			return fmt.Errorf("machine: crash point at negative index %d", cp.At)
		}
	}
	for _, w := range fp.Stalls {
		if w.P < 0 || w.P >= n {
			return fmt.Errorf("machine: stall window names process %d of %d", w.P, n)
		}
		if w.From < 0 || w.To < w.From {
			return fmt.Errorf("machine: stall window [%d,%d) is not a window", w.From, w.To)
		}
	}
	if fp.MaxCrashes < 0 {
		return fmt.Errorf("machine: negative crash budget %d", fp.MaxCrashes)
	}
	return nil
}

// stalled reports whether a commit of register r by process p is suspended
// at global step count step.
func (fp *FaultPlan) stalled(p int, r Reg, step int64) bool {
	if fp == nil {
		return false
	}
	for _, w := range fp.Stalls {
		if w.P != p || step < w.From || step >= w.To {
			continue
		}
		if w.Reg < 0 || w.Reg == r {
			return true
		}
	}
	return false
}

// Instrument weaves the plan's crash points into a schedule: a crash
// element PCrash(cp.P) is inserted before the element at index cp.At
// (clamped to the end). The input schedule is not modified. Crash points
// are applied in ascending index order; indices refer to the original,
// uninstrumented schedule.
func (fp *FaultPlan) Instrument(sched Schedule) Schedule {
	if fp == nil || len(fp.Crashes) == 0 {
		return append(Schedule(nil), sched...)
	}
	pts := append([]CrashPoint(nil), fp.Crashes...)
	// Sort by (At, P), not At alone: two crash points at the same index
	// must weave in the same order no matter how the plan was assembled
	// (plans built from map iteration used to leak that order here).
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].At != pts[j].At {
			return pts[i].At < pts[j].At
		}
		return pts[i].P < pts[j].P
	})
	out := make(Schedule, 0, len(sched)+len(pts))
	next := 0
	for i, e := range sched {
		for next < len(pts) && pts[next].At <= int64(i) {
			out = append(out, PCrash(pts[next].P))
			next++
		}
		out = append(out, e)
	}
	for ; next < len(pts); next++ {
		out = append(out, PCrash(pts[next].P))
	}
	return out
}

// SetFaultPlan installs (or with nil removes) a fault plan on the
// configuration. Only the plan's stall windows are enforced by the
// configuration itself; crash points are schedule elements (see
// Instrument) and the crash budget belongs to the checker.
func (c *Config) SetFaultPlan(fp *FaultPlan) { c.faults = fp }

// FaultPlan returns the installed fault plan, if any.
func (c *Config) FaultPlan() *FaultPlan { return c.faults }

// TotalSteps returns the number of steps the configuration has executed
// (all processes, all kinds, crashes included) — the clock that stall
// windows are expressed against.
func (c *Config) TotalSteps() int64 { return c.steps }

// Crashed reports how many times process p has crashed.
func (c *Config) Crashed(p int) int64 { return c.stats.Crashes[p] }

// crashStep executes Crash(p): process p loses its write buffer, its
// volatile interpreter state and its knowledge cache. Shared memory and
// the last-committer table survive. A non-recoverable program restarts
// from the top; a recoverable program keeps its durable locals and
// re-enters at its recovery section (lang.CrashRestart) — the RME model's
// recover-and-re-compete semantics. An open passage window also survives:
// the re-entry continues the same super-passage, so recovery RMRs are
// charged to the passage the crash interrupted. Crashing a halted process
// produces no step — a process that has returned has left the protocol
// (the checker and the RME model both want restarts of live processes
// only).
//
// The victim's pending local computation is settled before the crash,
// exactly as keying settles it: a durable-local update the process has
// already computed survives, so a crash lands on the same state whether
// or not an explorer happened to key the configuration first (a thief
// replaying a stolen schedule prefix does not key the nodes it passes).
func (c *Config) crashStep(p int, u *Undo) (StepRecord, bool, error) {
	ps := c.procs[p]
	if ps.Halted() {
		return StepRecord{}, false, nil
	}
	if _, _, err := ps.NextOp(); err != nil {
		return StepRecord{}, false, err
	}
	known := c.cacheKnown[p*c.cacheStride : (p+1)*c.cacheStride]
	if u != nil {
		// The crash replaces the buffer and interpreter pointers (the old
		// values stay intact behind them) and clears the cache row's
		// presence bits; the row's value cells are untouched.
		u.crashed = true
		u.prevBuf = c.wbs[p]
		u.prevProc = ps
		u.prevCacheKnown = append(c.spareRow(), known...)
	}
	// The restarted state and the empty buffer are built in storage an
	// earlier Revert released, when there is some.
	c.wbs[p] = c.spareBuffer()
	c.procs[p] = ps.CrashRestart(c.spareProc())
	clear(known)
	c.touch(p, partProc|partBuf)

	c.stats.Crashes[p]++
	c.stats.Steps[p]++
	c.steps++
	rec := StepRecord{P: p, Kind: StepCrash, SegOwner: NoOwner}
	c.trace.append(rec)
	return rec, true, nil
}
