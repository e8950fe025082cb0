package check

import (
	"context"
	"fmt"
	"slices"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// graphNodeBytes is the memory the liveness graph retains per node — its
// id-map entry, node record and share of the transition list — charged to
// the budget on top of the visited-set entry. Measured as the live heap
// the finished recorder holds, over its node count, on bakery n=3/PSO:
// 99.5 B (3.2 transitions per node; BENCH_check.json, fcfs_liveness_engine).
const graphNodeBytes = 100

// ProgressResult reports the liveness analysis of a subject.
type ProgressResult struct {
	// States is the number of distinct reachable states.
	States int
	// Complete is true if the reachable state space was fully explored
	// within the bounds.
	Complete bool
	// DeadlockFree is true if from every reachable state some schedule
	// completes all processes (no reachable dead or livelocked component).
	DeadlockFree bool
	// StuckStates counts reachable states from which no completion is
	// reachable; StuckWitness is a schedule into one of them (empty if
	// none).
	StuckStates  int
	StuckWitness machine.Schedule
	// WeakObstructionFree is true if in every reachable configuration in
	// which all processes but one are in their initial or final states,
	// the remaining process terminates when run alone (the paper's
	// Section 2 progress condition).
	WeakObstructionFree bool
	// WOFWitness leads to a configuration refuting weak obstruction-
	// freedom (empty if none).
	WOFWitness machine.Schedule
}

// CheckProgress builds the full reachable state graph of the subject under
// the given model (bounded by maxStates) and verifies two liveness
// properties:
//
//   - deadlock freedom: every reachable state can still reach a state in
//     which all processes have returned (checked by reverse reachability
//     from the terminal states);
//   - weak obstruction-freedom: wherever all processes but one are initial
//     or final, the remaining process finishes solo.
//
// Spin-lock subjects have cyclic state graphs, so simple "no successor"
// deadlock detection would be vacuous; reverse reachability from the
// terminal states is the right notion (a livelocked component fails it).
//
// The graph is recorded by the exploration engine at one worker (see
// graphRecorder), which runs the weak obstruction-freedom check when it
// first visits a state. The exploration is bounded by opts.Budget and
// cancelled by ctx. When the state budget trips, the analysis finishes on
// the truncated graph (Complete=false, DeadlockFree=false — proving
// nothing) and the partial result is returned together with the
// *run.BudgetError. Fault plans, state-space reductions, checkpoints and
// Workers > 1 are rejected (see Opts.unsupported).
func (s *Subject) CheckProgress(ctx context.Context, model machine.Model, opts Opts) (*ProgressResult, error) {
	if err := opts.unsupported("liveness analysis", true); err != nil {
		return nil, err
	}
	opts.Workers = 1
	g := &graphRecorder{s: s, ids: make(map[machine.StateKey]int32, 1024)}
	out, err := s.runWS(ctx, model, opts, nil, g)
	if err != nil && !run.IsLimit(err) {
		return nil, err
	}
	res := &ProgressResult{
		States:              out.States,
		Complete:            out.Complete,
		WeakObstructionFree: g.wof == nil,
		WOFWitness:          g.wof,
	}

	// Reverse reachability from terminal states.
	pred := make([][]int32, len(g.nodes))
	for _, e := range g.edges {
		pred[e.to] = append(pred[e.to], e.from)
	}
	canFinish := make([]bool, len(g.nodes))
	var queue []int32
	for id, nd := range g.nodes {
		if nd.term {
			canFinish[id] = true
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, pid := range pred[id] {
			if !canFinish[pid] {
				canFinish[pid] = true
				queue = append(queue, pid)
			}
		}
	}
	for id := range g.nodes {
		if !canFinish[id] {
			res.StuckStates++
			if res.StuckWitness == nil {
				res.StuckWitness = g.pathTo(int32(id))
			}
		}
	}
	// With a truncated graph, absence of stuck states proves nothing.
	res.DeadlockFree = res.Complete && res.StuckStates == 0
	return res, err
}

// graphRecorder is CheckProgress's record of the engine's exploration:
// node ids in visit order, the DFS tree edge into each node (for
// witnesses), each node's terminal flag, and every transition. It relies
// on the run having one worker: the node a transition leaves is then the
// one on the DFS path one step shallower.
type graphRecorder struct {
	s      *Subject
	ids    map[machine.StateKey]int32
	nodes  []graphNode
	edges  []graphEdge
	onPath []int32          // node ids along the engine's DFS path, by depth
	wof    machine.Schedule // first schedule refuting WOF (nil: none yet)
}

type graphNode struct {
	via    machine.Elem // the tree edge's step
	parent int32        // -1 at the root
	term   bool         // all processes halted
}

type graphEdge struct{ from, to int32 }

// transition records the engine's step along path into c, keyed key. A
// state seen for the first time becomes a node and gets the weak
// obstruction-freedom check.
func (g *graphRecorder) transition(c *machine.Config, path machine.Schedule, key machine.StateKey) error {
	d := len(path)
	id, seen := g.ids[key]
	if !seen {
		id = int32(len(g.nodes))
		g.ids[key] = id
		nd := graphNode{parent: -1, term: c.AllHalted()}
		if d > 0 {
			nd.via, nd.parent = path[d-1], g.onPath[d-1]
		}
		g.nodes = append(g.nodes, nd)
		g.onPath = append(g.onPath[:d], id)
		if g.wof == nil {
			refuted, err := g.s.refutesWOF(c)
			if err != nil {
				return err
			}
			if refuted {
				g.wof = append(machine.Schedule{}, path...)
			}
		}
	}
	if d > 0 {
		g.edges = append(g.edges, graphEdge{from: g.onPath[d-1], to: id})
	}
	return nil
}

// pathTo follows tree edges back from node id to the root.
func (g *graphRecorder) pathTo(id int32) machine.Schedule {
	sched := machine.Schedule{}
	for ; g.nodes[id].parent >= 0; id = g.nodes[id].parent {
		sched = append(sched, g.nodes[id].via)
	}
	slices.Reverse(sched)
	return sched
}

// refutesWOF tests the weak obstruction-freedom condition at one state.
func (s *Subject) refutesWOF(c *machine.Config) (bool, error) {
	// The paper's condition quantifies over every process p such that all
	// *other* processes are initial or final. With at most one
	// mid-execution process, that process must solo-terminate; if all
	// processes are initial or final, every non-final process must.
	active := -1
	for p := 0; p < c.N(); p++ {
		initial := c.Stats().Steps[p] == 0
		if c.Halted(p) || initial {
			continue
		}
		if active >= 0 {
			return false, nil // two mid-execution processes: precondition fails
		}
		active = p
	}
	var candidates []int
	if active >= 0 {
		candidates = []int{active}
	} else {
		for p := 0; p < c.N(); p++ {
			if !c.Halted(p) {
				candidates = append(candidates, p)
			}
		}
	}
	for _, p := range candidates {
		halted, err := c.Clone().RunSolo(p, machine.DefaultSoloLimit(c.N()))
		if err != nil {
			return false, err
		}
		if !halted {
			return true, nil
		}
	}
	return false, nil
}

// String renders a one-line summary.
func (r *ProgressResult) String() string {
	return fmt.Sprintf("states=%d complete=%v deadlockFree=%v weakObstructionFree=%v stuck=%d",
		r.States, r.Complete, r.DeadlockFree, r.WeakObstructionFree, r.StuckStates)
}
