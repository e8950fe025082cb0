package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tradingfences/internal/lang"
)

// undoModels are the models the revert properties are checked under.
var undoModels = []Model{SC, TSO, PSO}

// requireConfigsEqual asserts that two configurations are observationally
// bit-identical: same state key bytes, same fingerprint, same statistics,
// same step clock, and — beyond what the key covers — the same knowledge
// caches and last-committer table (the RMR-classification state). The
// comparison runs over logical register indices so two configs with
// different physical strides (one grew via ensureReg, one was cloned at
// final size) still compare equal.
func requireConfigsEqual(t *testing.T, label string, a, b *Config) {
	t.Helper()
	ak, err := a.StateKey()
	if err != nil {
		t.Fatalf("%s: key(a): %v", label, err)
	}
	bk, err := b.StateKey()
	if err != nil {
		t.Fatalf("%s: key(b): %v", label, err)
	}
	if ak != bk {
		t.Fatalf("%s: state keys differ: %v vs %v", label, ak, bk)
	}
	af, err := a.Fingerprint()
	if err != nil {
		t.Fatalf("%s: fingerprint(a): %v", label, err)
	}
	bf, err := b.Fingerprint()
	if err != nil {
		t.Fatalf("%s: fingerprint(b): %v", label, err)
	}
	if af != bf {
		t.Fatalf("%s: fingerprints differ:\n  %s\n  %s", label, af, bf)
	}
	if a.steps != b.steps {
		t.Fatalf("%s: step clocks differ: %d vs %d", label, a.steps, b.steps)
	}
	as, bs := a.Stats(), b.Stats()
	var arow, brow [statsCounters]int64
	for p := 0; p < a.n; p++ {
		as.snapshotRow(p, &arow)
		bs.snapshotRow(p, &brow)
		if arow != brow {
			t.Fatalf("%s: stats rows for p%d differ: %v vs %v", label, p, arow, brow)
		}
	}
	// RMR-classification state, invisible to keys and fingerprints.
	size := Reg(a.lay.Size())
	if s := Reg(a.cacheStride); s > size {
		size = s
	}
	if s := Reg(b.cacheStride); s > size {
		size = s
	}
	for r := Reg(0); r < size; r++ {
		if av, bv := a.memAt(r), b.memAt(r); av != bv {
			t.Fatalf("%s: mem[%d] differs: %d vs %d", label, r, av, bv)
		}
		ac, aok := a.lastCommitterOf(r)
		bc, bok := b.lastCommitterOf(r)
		if aok != bok || (aok && ac != bc) {
			t.Fatalf("%s: lastCommitter[%d] differs: (%d,%v) vs (%d,%v)", label, r, ac, aok, bc, bok)
		}
		for p := 0; p < a.n; p++ {
			av, aok := a.cacheAt(p, r)
			bv, bok := b.cacheAt(p, r)
			if aok != bok || (aok && av != bv) {
				t.Fatalf("%s: cache[p%d][%d] differs: (%d,%v) vs (%d,%v)", label, p, r, av, aok, bv, bok)
			}
		}
	}
	// Buffer contents in commit order (regs is deterministic per buffer kind).
	for p := 0; p < a.n; p++ {
		ae, be := a.wbs[p].entries(), b.wbs[p].entries()
		if len(ae) != len(be) {
			t.Fatalf("%s: buffer p%d length differs: %d vs %d", label, p, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("%s: buffer p%d entry %d differs: %v vs %v", label, p, i, ae[i], be[i])
			}
		}
	}
}

// requireFreshKey asserts that c's incremental state key — the memory
// sum kept by setMem plus the cached process and buffer components —
// equals the key of c.Clone(), which carries none of those caches and so
// sums every component from scratch; and that c's key bytes, assembled
// from the processes' cached segments, equal a fresh encoding. A mutation
// that failed to update the memory sum or drop a cached component, or a
// recycled state or buffer that kept another one's cache, shows here.
func requireFreshKey(t *testing.T, label string, c *Config) {
	t.Helper()
	fresh := c.Clone()
	if got, want := key(t, c), key(t, fresh); got != want {
		t.Fatalf("%s: incremental key %v, from-scratch key %v", label, got, want)
	}
	got, err := c.AppendStateBytes(nil)
	if err != nil {
		t.Fatalf("%s: key bytes: %v", label, err)
	}
	want, err := fresh.Clone().AppendStateBytes(nil)
	if err != nil {
		t.Fatalf("%s: fresh key bytes: %v", label, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: cached key bytes\n  %x\nfresh encoding\n  %x", label, got, want)
	}
}

// undoBounds are the reorder bounds the revert walks run under: none, and
// the tightest, where ages gate steps and enter the buffer components.
var undoBounds = []int{0, 1}

// undoElems builds a random schedule over n processes that also includes
// crash elements (randomSchedule in determinism_test.go is crash-free).
func undoElems(rng *rand.Rand, n, steps int, maxReg Reg) Schedule {
	sched := make(Schedule, steps)
	for i := range sched {
		p := rng.Intn(n)
		switch roll := rng.Float64(); {
		case roll < 0.08:
			sched[i] = PCrash(p)
		case roll < 0.38:
			sched[i] = PReg(p, Reg(rng.Int63n(int64(maxReg))))
		default:
			sched[i] = PBottom(p)
		}
	}
	return sched
}

// stepUndoWalk drives one configuration down a schedule with StepUndo,
// checking at every element that (1) the step agrees with Step on an
// identical clone, (2) Revert restores the configuration bit-for-bit, and
// (3) re-applying after the revert reproduces the step exactly. The
// surviving configuration is compared against a reference that only ever
// used Step, so undo bookkeeping cannot leak into forward execution.
// After every step and every revert the incremental key and the cached
// key bytes must match a from-scratch key and encoding. bound is the
// reorder bound (0 for none).
func stepUndoWalk(t *testing.T, model Model, bound int, fp *FaultPlan, sched Schedule, progs []*lang.Program) {
	t.Helper()
	lay := NewLayout()
	lay.MustAlloc("seg0", 10, OwnedByConst(0))
	lay.MustAlloc("seg1", 10, OwnedByConst(1))
	lay.MustAlloc("pad", 80, Unowned)
	lay.MustAlloc("shared", 30, Unowned)
	c, err := NewConfig(model, lay, progs)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(fp)
	c.SetReorderBound(bound)
	ref := c.Clone()

	for i, e := range sched {
		before := c.Clone()
		rec, took, u, err := c.StepUndo(e)
		recRef, tookRef, errRef := ref.Step(e)
		if took != tookRef || rec != recRef || (err == nil) != (errRef == nil) {
			t.Fatalf("elem %d (%v): StepUndo (%v,%v,%v) disagrees with Step (%v,%v,%v)",
				i, e, rec, took, err, recRef, tookRef, errRef)
		}
		if err != nil {
			// Interpreter errors abort exploration; nothing more to check.
			return
		}
		if !took {
			// A no-op step must leave the configuration untouched and
			// return an inert undo.
			u.Revert()
			requireFreshKey(t, "no-op step", c)
			requireConfigsEqual(t, "no-op step", c, before)
			continue
		}
		requireFreshKey(t, "after step", c)
		u.Revert()
		requireFreshKey(t, "after revert", c)
		requireConfigsEqual(t, "after revert", c, before)
		rec2, took2, err2 := c.Step(e)
		if err2 != nil || !took2 || rec2 != rec {
			t.Fatalf("elem %d (%v): re-apply after revert gave (%v,%v,%v), want (%v,true,nil)",
				i, e, rec2, took2, err2, rec)
		}
		requireConfigsEqual(t, "walk vs reference", c, ref)
	}
}

// undoProgs returns the worker programs for the revert walks: reads,
// buffered writes, fences and arithmetic over both owned and shared
// segments, so commits, drains, cache hits and remote classification all
// occur.
func undoProgs() []*lang.Program {
	return []*lang.Program{incProgram(), incProgram(), incProgram()}
}

// TestStepUndoRevertProperty: for random schedules with crashes and
// commit-stall windows under every model, with and without a reorder
// bound, StepUndo followed by Revert is the identity (state key,
// fingerprint, stats, caches, last-committer, buffers), and
// step/revert/step-again tracks a pure-Step reference configuration
// exactly.
func TestStepUndoRevertProperty(t *testing.T) {
	for _, model := range undoModels {
		t.Run(model.String(), func(t *testing.T) {
			for _, bound := range undoBounds {
				t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
					f := func(seed int64) bool {
						rng := rand.New(rand.NewSource(seed))
						sched := undoElems(rng, 3, 120, 121)
						fp := &FaultPlan{
							MaxCrashes: 4,
							Stalls: []StallWindow{
								{P: rng.Intn(3), Reg: -1, From: int64(rng.Intn(20)), To: int64(20 + rng.Intn(60))},
								{P: rng.Intn(3), Reg: Reg(100 + rng.Intn(10)), From: 0, To: int64(rng.Intn(80))},
							},
						}
						if err := fp.Validate(3); err != nil {
							t.Fatal(err)
						}
						stepUndoWalk(t, model, bound, fp, sched, undoProgs())
						return !t.Failed()
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestStepUndoZeroValueInert: the zero Undo and the Undo returned for a
// rejected or no-op step are inert — Revert must not disturb anything.
func TestStepUndoZeroValueInert(t *testing.T) {
	var zero Undo
	zero.Revert() // must not panic

	c, _ := mkConfig(t, PSO, incProgram(), incProgram())
	if halted, err := c.RunSolo(0, 64); err != nil || !halted {
		t.Fatalf("solo run: halted=%v err=%v", halted, err)
	}
	before := c.Clone()
	// Bad pid: an error step.
	if _, took, u, err := c.StepUndo(PBottom(7)); err == nil || took {
		t.Fatalf("bad pid: took=%v err=%v", took, err)
	} else {
		u.Revert()
	}
	// Stepping a halted process: a no-op step.
	if _, took, u, err := c.StepUndo(PBottom(0)); err != nil || took {
		t.Fatalf("halted step: took=%v err=%v", took, err)
	} else {
		u.Revert()
	}
	// Crashing a halted process: also a no-op.
	if _, took, u, err := c.StepUndo(PCrash(0)); err != nil || took {
		t.Fatalf("halted crash: took=%v err=%v", took, err)
	} else {
		u.Revert()
	}
	requireConfigsEqual(t, "inert undos", c, before)
}

// recycleProgs mixes the undo walks' straight-line workers with a
// recoverable looping worker that binds more locals, so the spare storage
// is passed between processes of different shapes and crash restarts
// carry a durable local into recycled states.
func recycleProgs() []*lang.Program {
	loop := recoverable("loop",
		[]lang.Stmt{
			lang.Assign("i", lang.I(0)),
			lang.While(lang.Lt(lang.L("i"), lang.I(3)),
				lang.Read("d", lang.I(102)),
				lang.Write(lang.I(102), lang.Add(lang.L("d"), lang.I(1))),
				lang.Assign("i", lang.Add(lang.L("i"), lang.I(1))),
			),
			lang.Fence(),
			lang.Return(lang.L("d")),
		},
		[]lang.Stmt{lang.Read("r", lang.I(102)), lang.Fence()},
		1, "d")
	return []*lang.Program{incProgram(), loop, incProgram()}
}

// TestStepUndoRevertStack: reverts compose in LIFO order — a depth-first
// walk that descends k steps and unwinds them one by one lands back on the
// root exactly, at every unwind depth. One configuration runs many such
// descend-and-unwind cycles with crashes, so rule-4 snapshots, restarted
// states, write buffers and cache-presence rows released by one cycle's
// reverts are reused by the next; after every step and every revert the
// incremental key and the cached key bytes must equal a from-scratch key
// and encoding. Every model runs with and without a reorder bound.
func TestStepUndoRevertStack(t *testing.T) {
	for _, model := range undoModels {
		t.Run(model.String(), func(t *testing.T) {
			for _, bound := range undoBounds {
				t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
					rng := rand.New(rand.NewSource(11))
					lay := NewLayout()
					lay.MustAlloc("regs", 128, OwnedBy)
					c, err := NewConfig(model, lay, recycleProgs())
					if err != nil {
						t.Fatal(err)
					}
					c.SetReorderBound(bound)
					reused := 0
					for cycle := 0; cycle < 40; cycle++ {
						spare := len(c.spareProcs)
						snapshots := []*Config{c.Clone()}
						var undos []Undo
						for _, e := range undoElems(rng, 3, 30, 121) {
							_, took, u, err := c.StepUndo(e)
							if err != nil {
								t.Fatal(err)
							}
							if !took {
								continue
							}
							requireFreshKey(t, "after step", c)
							undos = append(undos, u)
							snapshots = append(snapshots, c.Clone())
						}
						if len(c.spareProcs) < spare {
							reused++
						}
						for len(undos) > 0 {
							undos[len(undos)-1].Revert()
							undos = undos[:len(undos)-1]
							snapshots = snapshots[:len(snapshots)-1]
							requireFreshKey(t, "after revert", c)
							requireConfigsEqual(t, "unwind", c, snapshots[len(snapshots)-1])
						}
					}
					if reused == 0 || len(c.spareBufs) == 0 || len(c.spareRows) == 0 {
						t.Fatalf("storage not recycled: %d cycles reused states; %d spare buffers, %d spare rows",
							reused, len(c.spareBufs), len(c.spareRows))
					}
				})
			}
		})
	}
}

// keyPointsWalk drives one configuration down sched the way the engine's
// replays and probes use the key cache, not the step-key-revert rhythm of
// stepUndoWalk: each element is stepped into the next slot of a trail
// that keeps its reverted records, and between elements rng decides
// whether to key, to revert a few of the newest steps — past steps that
// were never keyed — or, while bound is 0, to install reorder bound 1
// between steps and their reverts. Every key must equal a fresh Clone's.
func keyPointsWalk(t *testing.T, model Model, bound int, rng *rand.Rand, sched Schedule, progs []*lang.Program) {
	t.Helper()
	lay := NewLayout()
	lay.MustAlloc("regs", 128, OwnedBy)
	c, err := NewConfig(model, lay, progs)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReorderBound(bound)
	var trail []Undo
	for i, e := range sched {
		n := len(trail)
		if n < cap(trail) {
			trail = trail[:n+1]
		} else {
			trail = append(trail, Undo{})
		}
		_, took, err := c.StepInto(e, &trail[n])
		if err != nil {
			// Interpreter errors abort exploration; nothing more to check.
			return
		}
		if !took {
			trail = trail[:n]
		}
		switch roll := rng.Float64(); {
		case roll < 0.3:
			requireFreshKey(t, fmt.Sprintf("key after elem %d (%v), depth %d", i, e, len(trail)), c)
		case roll < 0.55:
			for k := 1 + rng.Intn(4); k > 0 && len(trail) > 0; k-- {
				trail[len(trail)-1].Revert()
				trail = trail[:len(trail)-1]
			}
		case roll < 0.57 && c.ReorderBound() == 0 && model != SC:
			c.SetReorderBound(1)
		}
	}
	for len(trail) > 0 {
		trail[len(trail)-1].Revert()
		trail = trail[:len(trail)-1]
		if rng.Intn(3) == 0 {
			requireFreshKey(t, fmt.Sprintf("key while unwinding at depth %d", len(trail)), c)
		}
	}
	requireFreshKey(t, "key at the root", c)
}

// TestStateKeyAtRandomPoints: the key cache stays exact when keys are
// taken only at random points of a walk of steps and reverts (see
// keyPointsWalk), over the undo suite's subjects — the straight-line
// workers and the recoverable loop — under every model, with reorder
// bounds 0 and 1 and crash elements. The undo walks above key after every
// step, which never reaches the paths the engine's replays take: several
// processes stepped between keys, reverts of unkeyed steps, and records
// reused in place.
func TestStateKeyAtRandomPoints(t *testing.T) {
	subjects := []struct {
		name  string
		progs func() []*lang.Program
	}{{"inc", undoProgs}, {"recycle", recycleProgs}}
	for _, model := range undoModels {
		for _, bound := range undoBounds {
			for _, sub := range subjects {
				t.Run(fmt.Sprintf("%v/bound=%d/%s", model, bound, sub.name), func(t *testing.T) {
					for seed := int64(0); seed < 12; seed++ {
						rng := rand.New(rand.NewSource(seed))
						keyPointsWalk(t, model, bound, rng, undoElems(rng, 3, 300, 121), sub.progs())
					}
				})
			}
		}
	}
}

// FuzzStepUndoRevert: arbitrary schedule text under an arbitrary model,
// with and without a reorder bound, must satisfy the revert identity and
// keep the incremental key equal to a from-scratch one, both when keyed
// after every step and when keyed at random points (keyPointsWalk,
// seeded from the schedule's length). The corpus seeds cover commits,
// crash elements and fence drains.
func FuzzStepUndoRevert(f *testing.F) {
	f.Add("p0 p1 p0:R100 p1:R101 p0 p0 p1", uint8(2))
	f.Add("p0 p0 p0 p0! p0 p0", uint8(2))
	f.Add("p0:R0 p1 p1! p1 p1:R10 p0", uint8(1))
	f.Add("p0 p1 p2 p0 p1 p2 p0 p1 p2", uint8(0))
	f.Fuzz(func(t *testing.T, text string, modelByte uint8) {
		sched, err := ParseSchedule(text)
		if err != nil {
			return
		}
		for _, e := range sched {
			if e.P < 0 || e.P > 2 {
				return
			}
		}
		model := undoModels[int(modelByte)%len(undoModels)]
		fp := &FaultPlan{MaxCrashes: len(sched), Stalls: []StallWindow{{P: 0, Reg: -1, From: 2, To: 9}}}
		for _, bound := range undoBounds {
			stepUndoWalk(t, model, bound, fp, sched, undoProgs())
			rng := rand.New(rand.NewSource(int64(len(sched))))
			keyPointsWalk(t, model, bound, rng, sched, recycleProgs())
		}
	})
}
