package main

import (
	"context"
	"encoding/binary"
	"time"

	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// layer accumulates one layer's calls and busy time.
type layer struct {
	calls int64
	ns    int64
}

// ledger books the replica walk's time to the layers a state passes
// through. Timestamps form one chain: each mark closes the interval since
// the previous mark and books it to the layer whose call just returned.
// Each interval also holds one timestamp's own cost; report subtracts it,
// as measured by calibrate, once per booked interval. An untimed ledger
// books nothing.
type ledger struct {
	timed    bool
	last     time.Time
	markCost float64 // ns one mark adds to the interval it closes

	settle, encode, hash, visited, meter, occupancy, enumerate, step, revert layer

	lookups, fresh, encBytes int64
	keys                     []machine.StateKey // one walk's lookup stream
	visitedSet               layer              // the same streams through VisitedSet.TryVisit
}

func (l *ledger) mark(into *layer) {
	if !l.timed {
		return
	}
	now := time.Now()
	into.calls++
	into.ns += int64(now.Sub(l.last))
	l.last = now
}

// calibrate measures what one mark costs: the mean interval of a chain of
// empty marks, the smallest of several tries so a preempted try does not
// count.
func (l *ledger) calibrate() {
	const n = 100_000
	probe := ledger{timed: true}
	best := -1.0
	for try := 0; try < 5; try++ {
		var ly layer
		probe.last = time.Now()
		for i := 0; i < n; i++ {
			probe.mark(&ly)
		}
		if c := float64(ly.ns) / n; best < 0 || c < best {
			best = c
		}
	}
	l.markCost = best
}

// stateKeyOverhead mirrors the per-state bookkeeping charge Exhaustive
// passes to its meter.
const stateKeyOverhead = 48

// replicaWalk repeats Subject.Exhaustive's unreduced sequential walk from
// outside the check package, calling the same public functions in the
// same order: settle the live processes, encode the state key, hash it,
// look it up in a map visited set, charge the meter, test occupancy, then
// per process enumerate the edges (⊥, committable registers ascending,
// crash) and take each with StepUndo and Revert. It returns the visited
// state count and whether a violation was reached.
func replicaWalk(ctx context.Context, s *check.Subject, model machine.Model, maxCrashes int, lg *ledger) (int, bool, error) {
	root, err := s.Build(model)
	if err != nil {
		return 0, false, err
	}
	root.SetReorderBound(0)
	if s.Passages != nil {
		root.EnablePassages(*s.Passages, machine.NewPassageLog())
	}
	meter := run.NewMeter(ctx, run.Budget{})
	visited := make(map[machine.StateKey]struct{}, 1024)
	var enc machine.KeyEncoder
	var buf []byte
	var elemScratch [][]machine.Elem
	regs := make([]machine.Reg, 0, 8)

	var dfs func(c *machine.Config, crashes, depth int) (bool, error)
	dfs = func(c *machine.Config, crashes, depth int) (bool, error) {
		for p := 0; p < c.N(); p++ {
			if !c.Halted(p) {
				if _, _, err := c.NextOp(p); err != nil {
					return false, err
				}
			}
		}
		lg.mark(&lg.settle)
		var err error
		buf, err = enc.AppendStateBytes(c, buf[:0])
		if err != nil {
			return false, err
		}
		if maxCrashes > 0 {
			buf = binary.AppendUvarint(buf, uint64(crashes))
		}
		lg.mark(&lg.encode)
		key := machine.HashStateKey(buf)
		lg.mark(&lg.hash)
		_, seen := visited[key]
		lg.mark(&lg.visited)
		if lg.timed {
			lg.lookups++
			lg.encBytes += int64(len(buf))
			lg.keys = append(lg.keys, key)
		}
		if seen {
			return false, nil
		}
		if err := meter.AddState(machine.StateKeySize + stateKeyOverhead); err != nil {
			return false, err
		}
		lg.mark(&lg.meter)
		visited[key] = struct{}{}
		lg.mark(&lg.visited)

		in := 0
		for p := 0; p < c.N(); p++ {
			ok, err := s.InCS(c, p)
			if err != nil {
				return false, err
			}
			if ok {
				in++
			}
		}
		lg.mark(&lg.occupancy)
		if in >= 2 {
			return true, nil
		}

		if depth >= len(elemScratch) {
			elemScratch = append(elemScratch, make([]machine.Elem, 0, 8))
		}
		for p := 0; p < c.N(); p++ {
			if c.Halted(p) {
				continue
			}
			elems := append(elemScratch[depth][:0], machine.PBottom(p))
			regs = c.AppendBufferRegs(p, regs[:0])
			for _, r := range regs {
				if c.CanCommit(p, r) {
					elems = append(elems, machine.PReg(p, r))
				}
			}
			if crashes < maxCrashes {
				elems = append(elems, machine.PCrash(p))
			}
			elemScratch[depth] = elems
			lg.mark(&lg.enumerate)
			for _, e := range elems {
				if err := meter.AddStep(); err != nil {
					return false, err
				}
				lg.mark(&lg.meter)
				_, took, u, err := c.StepUndo(e)
				lg.mark(&lg.step)
				if err != nil {
					return false, err
				}
				if !took {
					continue
				}
				nc := crashes
				if e.Crash {
					nc++
				}
				found, err := dfs(c, nc, depth+1)
				u.Revert()
				lg.mark(&lg.revert)
				if err != nil || found {
					return found, err
				}
			}
		}
		return false, nil
	}

	lg.last = time.Now()
	found, err := dfs(root, 0, 0)
	if lg.timed {
		lg.fresh += int64(len(visited))
	}
	return len(visited), found, err
}

// replayVisitedSet feeds the walk's lookup stream through a fresh
// machine.VisitedSet.TryVisit with the same per-call timestamp chain, so
// check.visited.ns and machine.visited_set.ns compare like with like.
func (l *ledger) replayVisitedSet() {
	vs := machine.NewVisitedSet()
	last := time.Now()
	for _, k := range l.keys {
		vs.TryVisit(k)
		now := time.Now()
		l.visitedSet.ns += int64(now.Sub(last))
		last = now
	}
	l.visitedSet.calls += int64(len(l.keys))
	l.keys = l.keys[:0]
}

// report turns the ledger into per-layer metrics, each layer's time net of
// the marks that booked it. Coverage compares the net layer times with
// untimedWall, the untimed walks' wall time: a chain that missed part of
// the walk, or a mark cost that does not hold, shows as coverage away
// from 1.
func (l *ledger) report(m metrics, untimedWall time.Duration) {
	net := func(ly layer) float64 { return float64(ly.ns) - float64(ly.calls)*l.markCost }
	per := func(ly layer, n int64) float64 { return ratio(net(ly), float64(n)) }
	m["machine.step_undo.ns"] = per(l.step, l.step.calls)
	m["machine.step_undo.per_state"] = ratio(float64(l.step.calls), float64(l.fresh))
	m["machine.revert.ns"] = per(l.revert, l.revert.calls)
	m["machine.enumerate.ns"] = per(l.enumerate, l.fresh)
	m["lang.settle.ns"] = per(l.settle, l.lookups)
	m["machine.encode.ns"] = per(l.encode, l.lookups)
	m["machine.encode.bytes"] = ratio(float64(l.encBytes), float64(l.lookups))
	m["machine.hash.ns"] = per(l.hash, l.lookups)
	m["check.visited.ns"] = per(l.visited, l.lookups)
	m["check.visited.fresh_ratio"] = ratio(float64(l.fresh), float64(l.lookups))
	m["check.occupancy.ns"] = per(l.occupancy, l.fresh)
	m["run.meter.ns"] = per(l.meter, l.meter.calls)
	total := 0.0
	for _, ly := range []layer{l.settle, l.encode, l.hash, l.visited, l.meter, l.occupancy, l.enumerate, l.step, l.revert} {
		total += net(ly)
	}
	m["check.ledger.coverage"] = ratio(total, float64(untimedWall))
	m["machine.visited_set.ns"] = per(l.visitedSet, l.visitedSet.calls)
}
