// Exhaustive exploration: a work-stealing DFS over the subject's state
// space. Each worker owns one flat machine.Config plus a private undo
// trail (machine.Config.StepUndo / Undo.Revert) and walks a subtree
// depth-first, stepping transitions in place and reverting them
// on backtrack — no per-edge cloning, no per-level barrier. Load balance
// comes from stealing: a worker that observes idle peers donates the
// shallowest unexplored edge of its stack as a schedule prefix (never a
// configuration — consistent with how checkpoints serialize state), and
// the thief re-materializes the subtree root by replaying the prefix under
// its own undo trail.
//
// Shared state is minimal: a sharded concurrent visited set over the
// 16-byte StateKeys (machine.VisitedSet — fixed shard count derived from
// the key, independent of the worker count), a shared budget meter
// (run.SharedMeter), and a mutex-protected steal queue. Each worker steps
// straight into its trail's next slot (machine.Config.StepInto) and counts
// its own charges, adding them to the meter in batches (see chargeStep).
//
// This is the only exhaustive walker. Exhaustive runs it at one worker;
// FCFS checking runs it with a path monitor (Subject.Monitor), whose state
// rides in each DFS frame beside the spent crash count; the liveness
// analysis runs it at one worker with a graph recorder (see visit).
//
// Every worker count expands a node the same way: its successors go onto a
// lazy frame, and each one is charged, stepped and interned (one TryVisit)
// when the worker descends into it. The one exception is a donated edge,
// which its donor charges as it queues it, so every queued edge is
// already charged.
//
// Determinism contract. With Workers=1 the engine is deterministic: one
// worker, no donations, the canonical successor order and charges at
// descent, so verdict, witness schedule, state count and budget-trip point
// are the same on every run — and, without reductions, bit-identical to
// the clone-per-edge reference walker of parity_test.go. With Workers>1
// the verdict and — on complete runs, POR included (its cycle proviso is
// static; see por.go), and after a resume from a barrier snapshot — the
// state count and step total are still exact, but traversal order is
// scheduling-dependent: which violation witness is found first, and where
// a budget trips, may vary between runs. Snapshots name this engine (Checkpoint.Engine) and carry the current
// CheckpointVersion; a snapshot of any other version or engine fails
// closed with ErrCheckpointDrift.
package check

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// WorkerError reports the death of one exploration worker (a panic, an
// injected chaos fault, or a machine error inside its subtree). It is
// retryable from the last checkpoint: snapshots are only written at
// quiescent barriers, so the file on disk is always consistent.
type WorkerError struct {
	// Level is the snapshot generation current when the worker died (0
	// before the first save). The field name predates the work-stealing
	// engine, when it was the BFS level; it keeps its name so attempt
	// reports stay wire-compatible.
	Level, Worker int
	Err           error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("check: worker %d failed at level %d: %v", e.Worker, e.Level, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// EngineStats reports how the work-stealing engine behaved during one run:
// whether exploration scaled (steals spread load) or contended (parks mean
// workers starved for stealable work). Surfaced through Result.Engine,
// supervise.Attempt and the serve daemon's /metrics.
type EngineStats struct {
	// Workers is the resolved pool size the run used.
	Workers int `json:"workers"`
	// Steals counts frontier entries consumed by a worker other than the
	// one that donated them.
	Steals int64 `json:"steals"`
	// Donated counts edges published to the steal queue by busy workers.
	Donated int64 `json:"donated"`
	// Parks counts the times a worker went idle waiting for stealable
	// work (or for a checkpoint barrier to complete).
	Parks int64 `json:"parks"`
	// BatchLookups is always 0: no expansion batches its visited-set
	// lookups. The field stays for existing readers of EngineStats.
	BatchLookups int64 `json:"batch_lookups"`
	// Checkpoints counts snapshots written during the run.
	Checkpoints int64 `json:"checkpoints"`
}

// errStopped is the internal signal that the engine stopped (violation
// found, budget tripped elsewhere, worker died elsewhere, or checkpoint
// save failed) and the worker should park its pending work and exit. It
// never escapes the engine.
var errStopped = errors.New("check: exploration stopped")

// wsEntry is one stealable unit of work. Two shapes:
//
//   - an edge: sched reaches a not-yet-interned target configuration from
//     the root (stack == nil). The consumer replays sched[:len-1], steps
//     the final element, and explores the subtree under the target. The
//     final element's step is already charged: by the donor, or by the
//     run that wrote the snapshot the edge was resumed from. The root
//     entry is the degenerate edge with an empty schedule.
//   - a whole stack (stack != nil): a serialized DFS stack from a
//     checkpoint. The consumer replays sched once and re-enters the DFS
//     with every pending frame — deep checkpointed stacks cost one
//     replay, not one per pending edge.
type wsEntry struct {
	sched   machine.Schedule
	crashes int // crash budget spent along sched (edge entries)
	donor   int // donating worker id, -1 for root/resume entries
	stack   []wsStackFrame
}

// wsStackFrame is one pending frame of an adopted checkpoint stack.
type wsStackFrame struct {
	depth   int // node position along the entry schedule
	crashes int // crash budget spent at the node
	elems   []machine.Elem
}

// wsFrame is one live DFS stack frame: a node's not-yet-explored successor
// elements, none of them charged yet (each is charged at descent, in the
// reference walker's charge order, or when it is donated).
type wsFrame struct {
	elems   []machine.Elem
	next    int    // cursor: elems[next:end] are pending
	end     int    // donations shrink end from the right
	crashes int    // crash budget spent at this frame's node
	mon     uint64 // path-monitor state at this frame's node
	depth   int    // len(path) at this frame's node
}

// wsEngine is the shared coordination state of one run.
type wsEngine struct {
	s          *Subject
	model      machine.Model
	opts       Opts
	maxCrashes int
	workers    int
	meter      *run.SharedMeter
	visited    *machine.VisitedSet
	plog       *machine.PassageLog
	graph      *graphRecorder // liveness runs (one worker): told every transition
	stateBytes int64          // budget charge per interned state
	capSteps   bool           // the budget caps steps: charge each one to the meter
	capStates  bool           // the budget caps states or memory: likewise
	policy     *CheckpointPolicy
	identity   string
	rootKey    string
	bound      int  // resolved reorder bound (0 under SC: honest no-op)
	por        bool // ample-set partial-order reduction in force

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []wsEntry
	idle     int
	paused   int // workers parked at the checkpoint barrier
	stopped  bool
	stopErr  error
	violated bool
	vioPath  machine.Schedule
	vioInCS  []int
	gen      int // completed snapshot generation
	contribs []*CheckpointStack

	// Lock-free mirrors polled on worker hot paths.
	stopFlag  atomic.Bool
	ckWant    atomic.Bool
	idleCount atomic.Int32
	queued    atomic.Int32 // len(queue)
	genFlag   atomic.Int64
	sinceCk   atomic.Int64
	threshold atomic.Int64

	steals    atomic.Int64
	donated   atomic.Int64
	parks     atomic.Int64
	snapshots atomic.Int64
}

// wsWorker is one worker's private exploration state.
type wsWorker struct {
	id      int
	e       *wsEngine
	cfg     *machine.Config
	path    machine.Schedule
	trail   []machine.Undo // trail[i] undoes path[i]
	frames  []wsFrame
	donHint int   // frames below this index have no stealable elements
	lastGen int64 // last generation the chaos hook was consulted at
	entry   wsEntry

	// Charges not yet on the shared meter (see chargeStep): steps,
	// states, fresh states not yet counted toward the next snapshot, and
	// the charges made since the last flush.
	steps, states, fresh int64
	charges              int

	// Reusable scratch.
	regs  []machine.Reg
	in    []int
	probe machine.Undo // tryAmple's probe steps
}

// ExhaustiveParallel explores every schedule of the subject under the
// given model with the work-stealing DFS engine, pruning revisited states.
// It returns the same verdicts as Exhaustive and additionally:
//
//   - spreads the exploration over opts.Workers goroutines (0 resolves to
//     runtime.NumCPU; see Opts.Workers) through donation and stealing of
//     schedule-prefix frontier entries;
//   - with opts.Checkpoint, snapshots the pending frontier, worker stacks,
//     visited shards and meter usage at quiescent barriers and at budget
//     trips (atomic tmp+rename), so a killed or budget-tripped run resumes
//     via ResumeExhaustiveParallel instead of restarting from zero.
//
// Budgets and cancellation behave like Exhaustive: partial results return
// together with a structured error. Workers=1 is Exhaustive itself —
// verdict, witness, state count and budget-trip point. Workers>1 keeps
// verdicts, complete-run state counts and step totals exact, but which
// witness is found and where a budget trips become scheduling-dependent
// (see the package comment).
//
// Under Opts.Reduction.POR the engine expands ample sets (see por.go).
// Their cycle proviso is decided from the program, not from the run, so a
// node's ample set depends only on its configuration: complete POR runs
// visit the same states at every worker count and after any resume.
func (s *Subject) ExhaustiveParallel(ctx context.Context, model machine.Model, opts Opts) (Result, error) {
	return s.runWS(ctx, model, opts, nil, nil)
}

// ResumeExhaustiveParallel continues an exploration from a decoded
// checkpoint. The snapshot is re-certified first: the memory model, the
// subject's identity hash, the crash budget, the key codec, the reduction
// modes and the engine must match (ErrCheckpointDrift otherwise), and every
// pending schedule must replay on a fresh build. Meter usage is preloaded
// so opts.Budget spans the whole logical run; the wall clock restarts (see
// run.SharedMeter.Preload). A barrier snapshot's frontier edges are
// charged and its stacks' pending elements are not, so a complete resume
// from it charges the fresh run's step total. A resumed POR run reduces
// exactly as a fresh one does, so a complete resume visits the fresh run's
// states. A snapshot of an earlier version holds keys no current run
// mints (v6 and older hashed whole encodings; see CheckpointVersion) and
// fails closed with ErrCheckpointDrift. Subjects with a path monitor never
// write snapshots, so they have nothing to resume.
func (s *Subject) ResumeExhaustiveParallel(ctx context.Context, model machine.Model, ck *Checkpoint, opts Opts) (Result, error) {
	if s.Monitor != nil {
		return Result{}, errors.New("check: checking under a path monitor does not support snapshots; nothing to resume")
	}
	maxCrashes, err := opts.exhaustiveCrashBudget()
	if err != nil {
		return Result{}, err
	}
	rs, err := s.loadCheckpoint(model, ck, maxCrashes, opts)
	if err != nil {
		return Result{}, err
	}
	return s.runWS(ctx, model, opts, rs, nil)
}

// runWS runs the engine. A non-nil graph recorder requires a fresh
// one-worker run (CheckProgress).
func (s *Subject) runWS(ctx context.Context, model machine.Model, opts Opts, rs *resumeState, graph *graphRecorder) (out Result, rerr error) {
	maxCrashes, err := opts.exhaustiveCrashBudget()
	if err != nil {
		return Result{}, err
	}
	if err := opts.Reduction.validate(); err != nil {
		return Result{}, err
	}
	if err := s.monitorOpts(opts); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.workerCount()
	e := &wsEngine{
		s:          s,
		model:      model,
		opts:       opts,
		maxCrashes: maxCrashes,
		workers:    workers,
		meter:      run.NewSharedMeter(ctx, opts.Budget),
		graph:      graph,
		stateBytes: machine.StateKeySize + stateKeyOverhead,
		capSteps:   opts.Budget.MaxSteps > 0,
		capStates:  opts.Budget.MaxStates > 0 || opts.Budget.MaxMemEstimate > 0,
		policy:     opts.Checkpoint,
		contribs:   make([]*CheckpointStack, workers),
	}
	if graph != nil {
		e.stateBytes += graphNodeBytes
	}
	e.cond = sync.NewCond(&e.mu)
	// Resolve the reorder bound once, mirroring Config.SetReorderBound's
	// honest-no-op convention: SC buffers are always empty, so the bound is
	// reported (and certified) as 0 there.
	if model != machine.SC {
		e.bound = opts.Reduction.ReorderBound
	}
	e.por = opts.Reduction.POR
	res := Result{
		Complete:     true,
		ReorderBound: e.bound,
		PORApplied:   e.por,
	}

	if e.policy != nil || rs != nil {
		fresh, err := s.Build(model)
		if err != nil {
			return Result{}, err
		}
		fresh.SetReorderBound(e.bound)
		e.identity = fresh.IdentityFingerprint()
		rk, err := s.stateKey(fresh, 0, maxCrashes, 0)
		if err != nil {
			return Result{}, err
		}
		e.rootKey = rk.String()
	}

	// Passage accounting spans the whole exploration through one shared
	// log (each worker's configuration is enabled onto it). Resumed runs
	// leave it off: passage watermarks are not part of the checkpoint
	// schema, so a resumed run could only report the post-resume remainder
	// — reporting nothing is honest, a partial watermark is not.
	defer func() { fillPassages(&out, e.plog) }()

	if rs != nil {
		e.visited = rs.visited
		e.queue = rs.entries
		e.queued.Store(int32(len(e.queue)))
		e.gen = rs.gen
		e.genFlag.Store(int64(rs.gen))
		e.meter.Preload(rs.steps, rs.states, rs.mem)
		res.ResumedLevel = rs.gen
		res.VisitedReused = rs.reused
	} else {
		e.visited = machine.NewVisitedSet()
		e.queue = []wsEntry{{donor: -1}}
		e.queued.Store(1)
		if s.Passages != nil {
			e.plog = machine.NewPassageLog()
		}
	}
	if e.policy != nil {
		e.threshold.Store(int64(max(e.policy.everyStates(), e.visited.Size()/4)))
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &wsWorker{id: id, e: e, lastGen: e.genFlag.Load()}
			// Everything the worker charged is on the meter before the
			// run reads it for its result or a final snapshot.
			defer w.flush()
			defer func() {
				if r := recover(); r != nil {
					e.fail(&WorkerError{Level: int(e.genFlag.Load()), Worker: id,
						Err: fmt.Errorf("panic: %v", r)})
				}
			}()
			cfg, err := s.Build(model)
			if err != nil {
				e.fail(err)
				return
			}
			cfg.SetReorderBound(e.bound)
			if e.plog != nil {
				cfg.EnablePassages(*s.Passages, e.plog)
			}
			w.cfg = cfg
			if err := w.fault(); err != nil {
				e.fail(err)
				return
			}
			for {
				ent, ok := e.next(w)
				if !ok {
					return
				}
				if err := w.runEntry(ent); err != nil {
					w.registerContrib()
					if !errors.Is(err, errStopped) {
						e.fail(err)
					}
					return
				}
			}
		}(i)
	}
	wg.Wait()

	res.States = e.visited.Size()
	res.Engine = &EngineStats{
		Workers:     workers,
		Steals:      e.steals.Load(),
		Donated:     e.donated.Load(),
		Parks:       e.parks.Load(),
		Checkpoints: e.snapshots.Load(),
	}
	if e.violated {
		res.Violation = true
		res.Witness = e.vioPath
		res.InCS = e.vioInCS
		res.Complete = false
		return res, nil
	}
	if e.stopErr != nil {
		res.Complete = false
		// A limit trip (budget or cancellation) with snapshots enabled
		// parks the exact trip point: the final snapshot covers the queue
		// plus every worker's registered pending stack, so the resumed run
		// continues from precisely the states this one did not consume.
		if e.policy != nil && run.IsLimit(e.stopErr) {
			e.mu.Lock()
			serr := e.snapshotLocked()
			e.mu.Unlock()
			if serr != nil {
				return res, fmt.Errorf("check: parking on budget trip: %w", serr)
			}
		}
		return res, e.stopErr
	}
	return res, nil
}

// fail stops the engine with an error. The first stop wins: a violation or
// earlier error already in place is kept.
func (e *wsEngine) fail(err error) {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		e.stopErr = err
		e.stopFlag.Store(true)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// foundViolation records the first mutual-exclusion violation and stops
// the engine.
func (e *wsEngine) foundViolation(path machine.Schedule, in []int) {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		e.violated = true
		e.vioPath = append(machine.Schedule{}, path...)
		e.vioInCS = append([]int(nil), in...)
		e.stopFlag.Store(true)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// next blocks until a frontier entry is available, the engine stops, or
// the whole exploration completes (every worker idle, nothing queued,
// nobody paused). During a checkpoint barrier the queue is frozen — idle
// workers count themselves into the barrier instead of popping. The
// worker flushes its charges first, since it may park or complete a
// barrier here; a failed context or wall check is left for the next
// charge to report.
func (e *wsEngine) next(w *wsWorker) (wsEntry, bool) {
	_ = w.flush()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped {
			return wsEntry{}, false
		}
		if !e.ckWant.Load() && len(e.queue) > 0 {
			ent := e.queue[0]
			e.queue = e.queue[1:]
			e.queued.Store(int32(len(e.queue)))
			if ent.donor >= 0 && ent.donor != w.id {
				e.steals.Add(1)
			}
			return ent, true
		}
		e.idle++
		e.idleCount.Store(int32(e.idle))
		if e.ckWant.Load() {
			// Idle participation in the barrier: we hold no pending work,
			// so counting ourselves idle is our whole contribution. The
			// last counter-in completes the snapshot.
			e.completeBarrierLocked()
		} else if e.idle == e.workers && e.paused == 0 && len(e.queue) == 0 {
			e.stopped = true
			e.stopFlag.Store(true)
			e.cond.Broadcast()
			e.idle--
			e.idleCount.Store(int32(e.idle))
			return wsEntry{}, false
		}
		if e.stopped || (!e.ckWant.Load() && len(e.queue) > 0) {
			// completeBarrierLocked released the queue (or stopped the
			// engine) — re-evaluate before sleeping, the wakeup broadcast
			// already happened.
			e.idle--
			e.idleCount.Store(int32(e.idle))
			continue
		}
		e.parks.Add(1)
		e.cond.Wait()
		e.idle--
		e.idleCount.Store(int32(e.idle))
	}
}

// donate publishes the last pending element of frame f as a stealable
// edge, charging its step: every queued edge is charged, so snapshots
// serialize the queue as charged frontier nodes and the consumer charges
// nothing. It donates only while idle workers outnumber queued edges: a
// woken thief stays counted idle until it takes its edge, and an edge
// nobody is waiting for comes back to its donor, which replays it from
// the root. Caller must have verified the frame has an element to spare.
// A failed charge is refunded, leaves the element on the frame and
// returns the limit error.
func (e *wsEngine) donate(w *wsWorker, f *wsFrame) error {
	e.mu.Lock()
	if e.stopped || e.idle <= len(e.queue) {
		// Keep the element, uncharged, on our own stack: every idle worker
		// already has an edge, or the engine stopped and the queue is
		// final-snapshot material (the exit path serializes our stack).
		e.mu.Unlock()
		return nil
	}
	if err := w.chargeStep(); err != nil {
		e.mu.Unlock()
		return err
	}
	f.end--
	elem := f.elems[f.end]
	sched := make(machine.Schedule, f.depth+1)
	copy(sched, w.path[:f.depth])
	sched[f.depth] = elem
	nc := f.crashes
	if elem.Crash {
		nc++
	}
	e.queue = append(e.queue, wsEntry{sched: sched, crashes: nc, donor: w.id})
	e.queued.Store(int32(len(e.queue)))
	e.mu.Unlock()
	e.donated.Add(1)
	e.cond.Signal()
	return nil
}

// requestSnapshot adds n fresh states to the count since the last
// snapshot and flags a checkpoint barrier once it reaches the threshold.
// Workers add their fresh states when they flush, so the threshold is a
// floor: a barrier may come up to one flush per worker late.
func (e *wsEngine) requestSnapshot(n int64) {
	if e.policy == nil {
		return
	}
	if e.sinceCk.Add(n) >= e.threshold.Load() {
		e.ckWant.Store(true)
	}
}

// flushEvery is how many charges a worker batches before it adds them to
// the shared meter.
const flushEvery = 256

// chargeStep charges one step and chargeState one fresh state. The worker
// counts them and adds them to the shared meter at its next flush: every
// flushEvery charges, so no shared cache line is written per edge, and at
// once when the budget caps the charged resource, so a capped run trips
// at exactly the charge a one-worker run always tripped at. A failed
// charge is refunded (the failed flush put it on the meter) and returned.
func (w *wsWorker) chargeStep() error {
	w.steps++
	if err := w.charged(w.e.capSteps); err != nil {
		w.e.meter.Refund(1, 0, 0)
		return err
	}
	return nil
}

func (w *wsWorker) chargeState() error {
	w.states++
	w.fresh++
	if err := w.charged(w.e.capStates); err != nil {
		w.e.meter.Refund(0, 1, w.e.stateBytes)
		return err
	}
	return nil
}

// charged counts one charge and flushes when it is capped or the batch
// is full.
func (w *wsWorker) charged(capped bool) error {
	if w.charges++; capped || w.charges >= flushEvery {
		return w.flush()
	}
	return nil
}

// refundStep gives back a step chargeStep charged and the engine did not
// take: from the pending count while it holds one, from the meter
// otherwise.
func (w *wsWorker) refundStep() {
	if w.steps > 0 {
		w.steps--
	} else {
		w.e.meter.Refund(1, 0, 0)
	}
}

// flush adds the worker's pending charges to the shared meter and its
// fresh states to the snapshot cadence. Workers also flush before every
// barrier, idle park and exit, so the meter is exact whenever a snapshot
// or the result reads it. The charges stay on the meter when a cap or the
// meter's context and wall check fails.
func (w *wsWorker) flush() error {
	e := w.e
	w.charges = 0
	var err error
	if w.steps != 0 {
		err = e.meter.AddSteps(w.steps)
		w.steps = 0
	}
	if w.states != 0 {
		if serr := e.meter.AddStates(w.states, w.states*e.stateBytes); err == nil {
			err = serr
		}
		w.states = 0
	}
	if w.fresh != 0 {
		e.requestSnapshot(w.fresh)
		w.fresh = 0
	}
	return err
}

// barrier parks an exploring worker at the checkpoint barrier: its stack
// is serialized as its contribution, and the last worker in (counting the
// idle ones) writes the snapshot. Returns when the snapshot is done (or
// abandoned because the engine stopped). The caller has flushed.
func (e *wsEngine) barrier(w *wsWorker) {
	contrib := w.serializeStack()
	e.mu.Lock()
	if !e.ckWant.Load() || e.stopped {
		e.mu.Unlock()
		return
	}
	e.contribs[w.id] = contrib
	e.paused++
	gen := e.gen
	e.completeBarrierLocked()
	for e.gen == gen && e.ckWant.Load() && !e.stopped {
		e.parks.Add(1)
		e.cond.Wait()
	}
	e.paused--
	e.contribs[w.id] = nil
	e.mu.Unlock()
}

// completeBarrierLocked writes the snapshot if every worker has arrived
// (paused at the barrier or idle in next) and releases the barrier.
func (e *wsEngine) completeBarrierLocked() {
	if !e.ckWant.Load() || e.stopped || e.paused+e.idle < e.workers {
		return
	}
	if err := e.snapshotLocked(); err != nil {
		// A snapshot that cannot be persisted is a hard error: continuing
		// silently would void the recoverability the caller asked for.
		e.stopped = true
		e.stopErr = err
		e.stopFlag.Store(true)
	}
	e.ckWant.Store(false)
	e.sinceCk.Store(0)
	e.cond.Broadcast()
}

// snapshotLocked serializes the pending work (queued entries plus every
// registered worker stack) and writes the snapshot. No-op when nothing is
// pending — completed runs are not snapshotted. Caller holds e.mu and
// guarantees quiescence.
func (e *wsEngine) snapshotLocked() error {
	var frontier []CheckpointNode
	var stacks []CheckpointStack
	for _, ent := range e.queue {
		if ent.stack != nil {
			stacks = append(stacks, stackEntryCheckpoint(ent))
			continue
		}
		frontier = append(frontier, CheckpointNode{Schedule: ent.sched.String(), Crashes: ent.crashes})
	}
	for _, st := range e.contribs {
		if st != nil {
			stacks = append(stacks, *st)
		}
	}
	if len(frontier) == 0 && len(stacks) == 0 {
		return nil
	}
	ck := buildCheckpoint(e.policy, e.model, e.identity, e.rootKey,
		e.bound, e.por, e.maxCrashes, e.gen+1, frontier, stacks, e.visited, e.meter)
	if err := saveCheckpoint(ck, e.policy.Path); err != nil {
		return err
	}
	e.gen++
	e.genFlag.Store(int64(e.gen))
	e.snapshots.Add(1)
	e.threshold.Store(int64(max(e.policy.everyStates(), e.visited.Size()/4)))
	return nil
}

// stackEntryCheckpoint serializes a queued (never-adopted) stack entry
// back into its checkpoint form.
func stackEntryCheckpoint(ent wsEntry) CheckpointStack {
	st := CheckpointStack{Schedule: ent.sched.String()}
	for _, fr := range ent.stack {
		st.Frames = append(st.Frames, CheckpointFrame{
			Depth:   fr.depth,
			Crashes: fr.crashes,
			Elems:   machine.Schedule(fr.elems).String(),
		})
	}
	return st
}

// fault consults the chaos hook at the worker's current generation.
func (w *wsWorker) fault() error {
	if w.e.opts.WorkerFault == nil {
		return nil
	}
	if err := w.e.opts.WorkerFault(int(w.lastGen), w.id); err != nil {
		return &WorkerError{Level: int(w.lastGen), Worker: w.id, Err: err}
	}
	return nil
}

// checkFlags is the per-iteration stable-point poll: stop, checkpoint
// barrier, and generation-keyed chaos faults.
func (w *wsWorker) checkFlags() error {
	e := w.e
	if e.stopFlag.Load() {
		return errStopped
	}
	if e.ckWant.Load() {
		if err := w.flush(); err != nil {
			return err
		}
		e.barrier(w)
		if e.stopFlag.Load() {
			return errStopped
		}
	}
	if g := e.genFlag.Load(); g != w.lastGen {
		w.lastGen = g
		if err := w.fault(); err != nil {
			return err
		}
	}
	return nil
}

// registerContrib parks the worker's pending stack for the final snapshot
// on its way out. Without a policy there is nothing to park.
func (w *wsWorker) registerContrib() {
	if w.e.policy == nil {
		return
	}
	st := w.serializeStack()
	if st == nil {
		return
	}
	w.e.mu.Lock()
	w.e.contribs[w.id] = st
	w.e.mu.Unlock()
}

// serializeStack captures the worker's pending frames as a checkpoint
// stack (nil when nothing is pending). Exhausted frames are dropped; the
// schedule is truncated at the deepest pending frame.
func (w *wsWorker) serializeStack() *CheckpointStack {
	top := -1
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].next < w.frames[i].end {
			top = i
			break
		}
	}
	if top < 0 {
		return nil
	}
	st := &CheckpointStack{Schedule: w.path[:w.frames[top].depth].String()}
	for i := 0; i <= top; i++ {
		f := &w.frames[i]
		if f.next >= f.end {
			continue
		}
		st.Frames = append(st.Frames, CheckpointFrame{
			Depth:   f.depth,
			Crashes: f.crashes,
			Elems:   machine.Schedule(f.elems[f.next:f.end]).String(),
		})
	}
	return st
}

// stepEdge steps el into the next slot of the undo trail and appends it
// to the path. An element that produces no step, or fails, leaves both
// as they were.
func (w *wsWorker) stepEdge(el machine.Elem) (machine.StepRecord, bool, error) {
	n := len(w.trail)
	if n < cap(w.trail) {
		w.trail = w.trail[:n+1]
	} else {
		w.trail = append(w.trail, machine.Undo{})
	}
	rec, took, err := w.cfg.StepInto(el, &w.trail[n])
	if err != nil || !took {
		w.trail = w.trail[:n]
		return rec, false, err
	}
	w.path = append(w.path, el)
	return rec, true, nil
}

// popEdge reverts the newest trail step and drops it from the path.
func (w *wsWorker) popEdge() {
	last := len(w.trail) - 1
	w.trail[last].Revert()
	w.trail = w.trail[:last]
	w.path = w.path[:last]
}

// unwindAll reverts the whole undo trail, returning the configuration to
// the initial state, and clears the stack.
func (w *wsWorker) unwindAll() {
	for i := len(w.trail) - 1; i >= 0; i-- {
		w.trail[i].Revert()
	}
	w.trail = w.trail[:0]
	w.path = w.path[:0]
	w.frames = w.frames[:0]
	w.donHint = 0
}

// abortWith unwinds and re-queues the in-flight entry (its subtree was not
// consumed), then returns err — used when the entry must survive into the
// final snapshot (engine stop, budget trip during materialization).
func (w *wsWorker) abortWith(err error) error {
	w.unwindAll()
	e := w.e
	e.mu.Lock()
	e.queue = append(e.queue, w.entry)
	e.queued.Store(int32(len(e.queue)))
	e.mu.Unlock()
	return err
}

// pushFrame appends an empty frame at the current depth, recycling the
// slot's element storage.
func (w *wsWorker) pushFrame(crashes int) *wsFrame {
	n := len(w.frames)
	if cap(w.frames) > n {
		w.frames = w.frames[:n+1]
	} else {
		w.frames = append(w.frames, wsFrame{})
	}
	f := &w.frames[n]
	*f = wsFrame{elems: f.elems[:0], crashes: crashes, depth: len(w.path)}
	return f
}

// popFrame discards the exhausted top frame and reverts the trail down to
// the new top frame's depth (or to the root).
func (w *wsWorker) popFrame() {
	w.frames = w.frames[:len(w.frames)-1]
	target := 0
	if n := len(w.frames); n > 0 {
		target = w.frames[n-1].depth
	}
	for len(w.trail) > target {
		w.trail[len(w.trail)-1].Revert()
		w.trail = w.trail[:len(w.trail)-1]
	}
	w.path = w.path[:target]
	if w.donHint > len(w.frames) {
		w.donHint = len(w.frames)
	}
}

// runEntry materializes and fully explores one frontier entry, leaving the
// configuration back at the initial state on success. On error the stack
// and trail are left intact for serialization by the caller.
func (w *wsWorker) runEntry(ent wsEntry) error {
	w.entry = ent
	if err := w.materialize(ent); err != nil {
		return err
	}
	if err := w.explore(); err != nil {
		return err
	}
	w.unwindAll()
	return nil
}

// materialize replays the entry's schedule under the worker's undo trail
// and installs its pending work: for an edge entry the final element is
// stepped (its step is already charged) and the target visited; for a
// stack entry the serialized frames are adopted, uncharged.
func (w *wsWorker) materialize(ent wsEntry) error {
	e := w.e
	replay := ent.sched
	var final machine.Elem
	hasFinal := false
	if ent.stack == nil && len(ent.sched) > 0 {
		replay = ent.sched[:len(ent.sched)-1]
		final = ent.sched[len(ent.sched)-1]
		hasFinal = true
	}
	crashes := 0
	var mon uint64
	for _, el := range replay {
		if e.stopFlag.Load() {
			return w.abortWith(errStopped)
		}
		rec, took, err := w.stepEdge(el)
		if err != nil || !took {
			if err == nil {
				err = fmt.Errorf("check: frontier entry %q does not replay", ent.sched)
			}
			w.unwindAll()
			return err
		}
		if mon, err = w.observe(mon, rec); err != nil {
			return err
		}
		if el.Crash {
			crashes++
		}
	}
	if ent.stack != nil {
		// Stack entries come only from snapshots, which monitored subjects
		// never write, so adopted frames carry no monitor state.
		for _, fr := range ent.stack {
			f := w.pushFrame(fr.crashes)
			f.depth = fr.depth
			f.elems = append(f.elems, fr.elems...)
			f.end = len(f.elems)
		}
		return nil
	}
	if hasFinal {
		rec, took, err := w.stepEdge(final)
		if err != nil {
			w.unwindAll()
			return err
		}
		if !took {
			// The element is disabled at the edge's source, as some
			// enumerated elements are (a one-worker run charges and skips
			// them at descent): the edge is consumed.
			w.unwindAll()
			return nil
		}
		if mon, err = w.observe(mon, rec); err != nil {
			return err
		}
		if final.Crash {
			crashes++
		}
	}
	pushed, err := w.visit(crashes, mon)
	if err != nil {
		if errors.Is(err, errStopped) {
			return err
		}
		if run.IsLimit(err) {
			return w.abortWith(err)
		}
		return err
	}
	if !pushed {
		w.unwindAll()
	}
	return nil
}

// visit interns and expands the configuration the worker currently sits
// at. Returns pushed=false when the state was already visited (the caller
// backtracks its edge). On a limit error the interning and its charge are
// rolled back, so the interned count sits exactly at the budget cap — the
// one-worker trip point — and equals the charged count, and the caller
// re-queues the edge for resume. A run with a graph recorder checks no
// occupancy; instead the recorder is told about every transition, into a
// fresh state or not.
func (w *wsWorker) visit(crashes int, mon uint64) (pushed bool, err error) {
	e := w.e
	key, err := e.s.stateKey(w.cfg, crashes, e.maxCrashes, mon)
	if err != nil {
		return false, err
	}
	fresh := e.visited.TryVisit(key)
	if fresh {
		if err := w.chargeState(); err != nil {
			e.visited.Remove(key)
			return false, err
		}
	}
	if e.graph != nil {
		if err := e.graph.transition(w.cfg, w.path, key); err != nil {
			return false, err
		}
	} else if fresh {
		in, err := e.s.occupancyInto(w.cfg, w.in[:0])
		if err != nil {
			return false, err
		}
		w.in = in[:0]
		if len(in) >= 2 {
			e.foundViolation(w.path, in)
			return false, errStopped
		}
	}
	if !fresh {
		return false, nil
	}
	return w.expand(crashes, mon)
}

// observe advances the subject's path monitor (if any) from state mon over
// the step just taken, the last element of the path. A flagged step is
// the run's violation: it is recorded with the path as its witness and
// errStopped is returned to a worker that is about to exit.
func (w *wsWorker) observe(mon uint64, rec machine.StepRecord) (uint64, error) {
	m := w.e.s.Monitor
	if m == nil {
		return 0, nil
	}
	next, bad := m(mon, rec)
	if bad {
		w.e.foundViolation(w.path, nil)
		return 0, errStopped
	}
	return next, nil
}

// expand enumerates the current configuration's successors in the
// canonical order (per process: ⊥, committable registers ascending, crash)
// into a fresh frame. Nothing is charged or stepped here: each successor
// is charged when a worker descends into it or donates it.
func (w *wsWorker) expand(crashes int, mon uint64) (bool, error) {
	e := w.e
	c := w.cfg
	f := w.pushFrame(crashes)
	f.mon = mon
	ample := false
	if e.por {
		var err error
		ample, err = w.tryAmple(f, crashes)
		if err != nil {
			// Terminal machine error: drop the frame and let the engine
			// fail.
			w.frames = w.frames[:len(w.frames)-1]
			if w.donHint > len(w.frames) {
				w.donHint = len(w.frames)
			}
			return false, err
		}
	}
	if !ample {
		for p := 0; p < c.N(); p++ {
			if c.Halted(p) {
				continue
			}
			f.elems = append(f.elems, machine.PBottom(p))
			w.regs = c.AppendBufferRegs(p, w.regs[:0])
			for _, r := range w.regs {
				if c.CanCommit(p, r) {
					f.elems = append(f.elems, machine.PReg(p, r))
				}
			}
			if crashes < e.maxCrashes {
				f.elems = append(f.elems, machine.PCrash(p))
			}
		}
	}
	f.end = len(f.elems)
	return true, nil
}

// tryAmple attempts to reduce the node to a singleton-process ample set
// (see por.go for the independence argument: a process with an empty write
// buffer poised at a buffered write, fence or return touches only its own
// state, and the static cycle proviso is already in ampleCandidate). On
// success the frame is pre-populated with just that process's transitions
// and true is returned; they are charged and visited like any other
// successors. Every ample element must take and must not move the ample
// process into the critical section (invisibility). Probe steps are speculative — reverted, not metered — and none of the
// ample operation kinds touches the passage log, so RME watermarks see no
// phantom records.
func (w *wsWorker) tryAmple(f *wsFrame, crashes int) (bool, error) {
	e := w.e
	c := w.cfg
	amp, err := e.s.ampleCandidate(c, e.model)
	if err != nil {
		return false, err
	}
	if amp < 0 {
		return false, nil
	}
	elems := append(f.elems[:0], machine.PBottom(amp))
	if crashes < e.maxCrashes {
		elems = append(elems, machine.PCrash(amp))
	}
	for _, el := range elems {
		_, took, err := c.StepInto(el, &w.probe)
		if err != nil {
			return false, err
		}
		if !took {
			return false, nil
		}
		in, err := e.s.InCS(c, amp)
		w.probe.Revert()
		if err != nil || in {
			return false, err
		}
	}
	f.elems = elems
	return true, nil
}

// explore runs the DFS loop over the worker's frame stack until it
// empties, donating stealable edges to idle peers along the way.
func (w *wsWorker) explore() error {
	e := w.e
	for len(w.frames) > 0 {
		if err := w.checkFlags(); err != nil {
			return err
		}
		f := &w.frames[len(w.frames)-1]
		if f.next >= f.end {
			w.popFrame()
			continue
		}
		if e.idleCount.Load() > e.queued.Load() {
			if err := w.maybeDonate(); err != nil {
				return err
			}
			f = &w.frames[len(w.frames)-1]
			if f.next >= f.end {
				w.popFrame()
				continue
			}
		}
		if err := w.chargeStep(); err != nil {
			return err
		}
		el := f.elems[f.next]
		f.next++
		rec, took, err := w.stepEdge(el)
		if err != nil {
			return err
		}
		if !took {
			continue
		}
		mon, err := w.observe(f.mon, rec)
		if err != nil {
			return err
		}
		nc := f.crashes
		if el.Crash {
			nc++
		}
		pushed, verr := w.visit(nc, mon)
		if verr != nil {
			if !errors.Is(verr, errStopped) {
				// Rewind the edge so it stays pending and refund its step:
				// the snapshot then parks the exact trip point, and the
				// resumed run charges the edge when it descends into it.
				// visit already rolled back its interning; the frame slice
				// may have been reallocated by a push, so re-take the top
				// pointer.
				w.popEdge()
				w.frames[len(w.frames)-1].next--
				w.refundStep()
			}
			return verr
		}
		if !pushed {
			w.popEdge()
		}
	}
	return nil
}

// maybeDonate publishes the shallowest stealable edge when more peers are
// idle than edges are queued. Donating from the bottom of the stack hands
// thieves the largest subtrees, which keeps steal traffic logarithmic in
// practice.
func (w *wsWorker) maybeDonate() error {
	for i := w.donHint; i < len(w.frames); i++ {
		f := &w.frames[i]
		avail := f.end - f.next
		if avail <= 0 {
			if i == w.donHint {
				w.donHint++
			}
			continue
		}
		if i == len(w.frames)-1 && avail < 2 {
			// Keep the top frame's last element for ourselves: donating it
			// would leave this worker re-queueing for its own work.
			return nil
		}
		return w.e.donate(w, f)
	}
	return nil
}
