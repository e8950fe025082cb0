package serve

import (
	"context"
	"sync"
	"time"

	"tradingfences/internal/supervise"
)

// Job statuses, in lifecycle order.
const (
	// StatusQueued: accepted, waiting for a worker slot.
	StatusQueued = "queued"
	// StatusRunning: a worker is exploring.
	StatusRunning = "running"
	// StatusDone: finished with a result (authoritative or degraded).
	StatusDone = "done"
	// StatusFailed: finished with a hard error and no usable result.
	StatusFailed = "failed"
	// StatusAborted: a client cancelled the job; terminal, never cached.
	StatusAborted = "aborted"
	// StatusInterrupted: the daemon drained while the job ran; its
	// checkpoint is on disk and a restart resumes it.
	StatusInterrupted = "interrupted"
)

// DefaultClient is the tenant bucket for submissions carrying no client
// identity header.
const DefaultClient = "default"

// Job is one deduplicated verification job. All fields are guarded by the
// owning Store's mutex; handlers read through Store.View.
type Job struct {
	// ID is derived from Key (JobID); Key is the canonical request hash.
	ID  string
	Key string
	// Request is the first submission's request (duplicates contribute
	// nothing but a DedupHits tick — except a higher priority, which
	// upgrades the shared job).
	Request Request
	Status  string
	// Client is the tenant the job is billed to (the first submitter's
	// identity; duplicates from other tenants ride free by design — the
	// answer is shared, so the cost is billed once).
	Client string
	// Priority is the scheduling class (PriorityLow..PriorityHigh).
	Priority int
	// Resume marks a job re-enqueued by outbox replay after a restart or
	// parked on its checkpoint by a preemption: its runner picks up the
	// certified checkpoint instead of recomputing.
	Resume bool
	// CheckpointPath is where the job's supervised run snapshots.
	CheckpointPath string

	Submitted time.Time
	// Enqueued is when the job last entered a queue (reset on preemption
	// re-queue); the queue-wait metric is Started - Enqueued.
	Enqueued time.Time
	Started  time.Time
	Finished time.Time

	// Aborting marks a running job whose terminal aborted outcome is
	// already journaled; its runner unwind must finish it as aborted no
	// matter what the runner returned.
	Aborting bool
	// Preempting marks a running job the scheduler has cancelled onto its
	// checkpoint to free a worker slot; its runner unwind re-queues it.
	Preempting bool
	// Preemptions counts how many times the job was parked and re-queued.
	Preemptions int

	// Attempts streams the supervised escalation ladder as it happens.
	Attempts []supervise.Attempt
	// Result and Error are the terminal outcome; ErrKind classifies
	// Error with the supervisor's vocabulary.
	Result  *Result
	Error   string
	ErrKind string

	// DedupHits counts duplicate submissions collapsed onto this job
	// while it was queued or running; CacheHits counts submissions served
	// from its completed result.
	DedupHits int
	CacheHits int

	// prior is the job as Submit found it when a submission re-runs a
	// terminal job, kept until Commit or Unaccept; nil for a new key.
	prior *Job
	// uncommitted marks an admitted (SubmitNew) job between Submit and
	// Commit or Unaccept: its submitted record is not journaled yet.
	uncommitted bool
}

// terminal reports whether the job has finished (successfully or not).
// Aborted is terminal: duplicates of an aborted job re-run fresh rather
// than joining a corpse.
func (j *Job) terminal() bool {
	return j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusAborted
}

// cost is the job's deficit-round-robin cost: a crude work proxy (bigger
// workloads eat more of their tenant's quantum, so a client submitting
// heavy jobs gets proportionally fewer slots per round).
func (j *Job) cost() int {
	c := j.Request.N * j.Request.Passages
	if c < 1 {
		c = 1
	}
	return c
}

// Caps sizes the store's admission and scheduling limits.
type Caps struct {
	// QueueCap bounds the global queued backlog (<= 0: unbounded); the
	// per-tenant caps below are the primary shed lever, this is the
	// backstop.
	QueueCap int
	// ClientQueued bounds each tenant's queued jobs (<= 0: unbounded).
	ClientQueued int
	// ClientRunning bounds each tenant's concurrently running jobs
	// (<= 0: unbounded). Enforced by the scheduler, not by shedding: a
	// tenant at its cap keeps its jobs queued while others run.
	ClientRunning int
	// Quantum is the DRR deficit top-up per scheduling round (default 8).
	Quantum int
	// Pool is the worker-slot count (the preemption threshold).
	Pool int
}

func (c Caps) withDefaults() Caps {
	if c.Quantum <= 0 {
		c.Quantum = 8
	}
	if c.Pool <= 0 {
		c.Pool = 1
	}
	return c
}

// tenant is one client's scheduling state: a FIFO per priority band, the
// DRR deficit, and the occupancy counters the caps are enforced against.
type tenant struct {
	queues  [PriorityHigh + 1][]*Job
	deficit int
	queued  int
	running int
	shed    int64
}

func (t *tenant) empty() bool { return t.queued == 0 }

// Store is the in-memory job table: the dedup index (by canonical key),
// per-tenant priority queues drained by deficit-round-robin, and the
// result cache (terminal jobs stay in the table). It is rebuilt from the
// outbox on startup.
type Store struct {
	mu      sync.Mutex
	cond    *sync.Cond
	byKey   map[string]*Job
	tenants map[string]*tenant
	// ring is the DRR rotation: tenants with queued work, in first-backlog
	// order; cursor points at the tenant whose turn it is.
	ring   []string
	cursor int
	caps   Caps
	// cancels holds each running job's cancel-cause handle (abort and
	// preemption fire through these).
	cancels map[*Job]*RunHandle
	// draining stops Next from handing out work.
	draining bool
	running  int
	queued   int

	// Queue-wait accounting (seconds), read by the metrics exposition.
	waitCount int64
	waitSum   float64
	waitMax   float64
}

// NewStore returns an empty store enforcing caps.
func NewStore(caps Caps) *Store {
	s := &Store{
		byKey:   make(map[string]*Job),
		tenants: make(map[string]*tenant),
		cancels: make(map[*Job]*RunHandle),
		caps:    caps.withDefaults(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SubmitOutcome says what happened to a submission.
type SubmitOutcome int

const (
	// SubmitNew: a fresh job was created and enqueued.
	SubmitNew SubmitOutcome = iota
	// SubmitDedup: an identical job is queued or running; the submission
	// joined it.
	SubmitDedup
	// SubmitCached: an identical job already completed authoritatively;
	// the submission is served from its result.
	SubmitCached
	// SubmitRejected: the global queue is saturated.
	SubmitRejected
	// SubmitRejectedQuota: the submitting tenant is over its own queued
	// cap — shed regardless of global headroom, so one tenant's flood
	// never costs another tenant a slot.
	SubmitRejectedQuota
)

// tenantOf returns (creating if needed) the client's scheduling state.
// Callers hold s.mu.
func (s *Store) tenantOf(client string) *tenant {
	t, ok := s.tenants[client]
	if !ok {
		t = &tenant{}
		s.tenants[client] = t
	}
	return t
}

// enqueueLocked appends j to its tenant's queue for j.Priority, joining
// the DRR ring if the tenant was idle. Callers hold s.mu.
func (s *Store) enqueueLocked(j *Job) {
	t := s.tenantOf(j.Client)
	if t.empty() {
		s.ring = append(s.ring, j.Client)
	}
	t.queues[j.Priority] = append(t.queues[j.Priority], j)
	t.queued++
	s.queued++
	j.Enqueued = time.Now()
	s.cond.Broadcast()
}

// dequeueLocked removes j from its tenant's queue (any band), leaving the
// ring when the tenant empties. Reports whether j was found queued.
func (s *Store) dequeueLocked(j *Job) bool {
	t, ok := s.tenants[j.Client]
	if !ok {
		return false
	}
	for band := range t.queues {
		for i, q := range t.queues[band] {
			if q == j {
				t.queues[band] = append(t.queues[band][:i], t.queues[band][i+1:]...)
				t.queued--
				s.queued--
				if t.empty() {
					s.leaveRingLocked(j.Client)
				}
				return true
			}
		}
	}
	return false
}

func (s *Store) leaveRingLocked(client string) {
	for i, c := range s.ring {
		if c == client {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if s.cursor > i {
				s.cursor--
			}
			if len(s.ring) > 0 {
				s.cursor %= len(s.ring)
			} else {
				s.cursor = 0
			}
			// An emptied tenant's deficit resets: saved-up credit does not
			// survive idleness (standard DRR — prevents burst hoarding).
			s.tenants[client].deficit = 0
			return
		}
	}
}

// Submit routes a normalized request for a client at a priority class:
// dedup against an in-flight job, serve from the cache, or admit a
// fresh job against the tenant's and the global caps. A completed-but-
// non-authoritative, failed or aborted prior job does not satisfy the
// submission — the job is reset fresh, so stale degraded verdicts and
// aborted husks are never served as answers to new traffic.
//
// A fresh (SubmitNew) job is admitted but NOT yet runnable: it joins the
// scheduler only when the caller Commits it after journaling its
// submitted record. Otherwise a fast worker could journal started/done
// ahead of the submitted record, and the replay fold would read the
// late-arriving submitted line as a resubmission — discarding the
// terminal outcome it actually precedes.
//
// A duplicate at a higher priority upgrades the shared job: a queued job
// moves to the higher band, a running one becomes harder to preempt.
func (s *Store) Submit(req Request, key, checkpointPath, client string, priority int) (*Job, SubmitOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byKey[key]; ok {
		switch {
		case !j.terminal():
			j.DedupHits++
			if priority > j.Priority {
				if j.Status == StatusQueued && s.dequeueLocked(j) {
					j.Priority = priority
					s.enqueueLocked(j)
				} else {
					j.Priority = priority
				}
			}
			return j, SubmitDedup
		case j.Status == StatusDone && j.Result != nil && j.Result.Authoritative:
			j.CacheHits++
			return j, SubmitCached
		default:
			// Failed, aborted, or done but degraded/partial: re-run fresh.
			if out, ok := s.admitLocked(client); !ok {
				return nil, out
			}
			prior := *j
			j.prior = &prior
			j.Request = req
			j.Status = StatusQueued
			j.Client = client
			j.Priority = priority
			j.Resume = false
			j.Aborting, j.Preempting = false, false
			j.Submitted = time.Now()
			j.Started, j.Finished = time.Time{}, time.Time{}
			j.Attempts, j.Result, j.Error, j.ErrKind = nil, nil, "", ""
			j.uncommitted = true
			return j, SubmitNew
		}
	}
	if out, ok := s.admitLocked(client); !ok {
		return nil, out
	}
	j := &Job{
		ID:             JobID(key),
		Key:            key,
		Request:        req,
		Status:         StatusQueued,
		Client:         client,
		Priority:       priority,
		CheckpointPath: checkpointPath,
		Submitted:      time.Now(),
		uncommitted:    true,
	}
	s.byKey[key] = j
	return j, SubmitNew
}

// Commit makes an admitted (SubmitNew) job runnable, once its submitted
// record is durably journaled. Until then Abort waits on the job, so it
// is still queued; enqueueing wakes the waiter.
func (s *Store) Commit(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.prior = nil
	j.uncommitted = false
	s.enqueueLocked(j)
}

// admitLocked applies the shed policy for one more queued job from
// client: the tenant's own queued cap first (per-tenant shed), then the
// global backstop. Callers hold s.mu.
func (s *Store) admitLocked(client string) (SubmitOutcome, bool) {
	t := s.tenantOf(client)
	if s.caps.ClientQueued > 0 && t.queued >= s.caps.ClientQueued {
		t.shed++
		return SubmitRejectedQuota, false
	}
	if s.caps.QueueCap > 0 && s.queued >= s.caps.QueueCap {
		t.shed++
		return SubmitRejected, false
	}
	return SubmitNew, true
}

// Restore inserts a job rebuilt from the outbox. Terminal jobs populate
// the cache; in-flight ones are re-enqueued with Resume set, so a
// restarted daemon picks their certified checkpoints back up without
// waiting for new traffic. Replay bypasses the admission caps: work that
// was already accepted is never shed on restart.
func (s *Store) Restore(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Client == "" {
		j.Client = DefaultClient
	}
	s.byKey[j.Key] = j
	if j.Status == StatusQueued {
		s.enqueueLocked(j)
	}
}

// Next blocks until a schedulable job is available (marking it running)
// or the store is draining (returning nil). Scheduling is strict priority
// across bands and deficit-round-robin across tenants within a band;
// tenants at their running cap are skipped, not starved — their deficit
// keeps accruing on their turns.
func (s *Store) Next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		if j := s.pickLocked(); j != nil {
			wait := time.Since(j.Enqueued).Seconds()
			s.waitCount++
			s.waitSum += wait
			if wait > s.waitMax {
				s.waitMax = wait
			}
			j.Status = StatusRunning
			j.Started = time.Now()
			s.running++
			s.tenantOf(j.Client).running++
			return j
		}
		s.cond.Wait()
	}
}

// pickLocked is one DRR scheduling decision. For the highest band with
// any eligible job, it rotates the tenant ring from the cursor: a tenant
// whose head-of-band job fits its deficit is served (cursor stays put, so
// its remaining deficit drains its queue on subsequent picks — DRR's
// batching); otherwise the tenant's deficit is topped up by the quantum
// and the rotation moves on. Deficits grow every full rotation, so the
// loop terminates. Returns nil when no job is eligible (empty queues, or
// every backlogged tenant is at its running cap).
func (s *Store) pickLocked() *Job {
	if s.queued == 0 || len(s.ring) == 0 {
		return nil
	}
	for band := PriorityHigh; band >= PriorityLow; band-- {
		eligible := 0
		maxCost := 0
		for _, c := range s.ring {
			t := s.tenants[c]
			if len(t.queues[band]) == 0 {
				continue
			}
			if s.caps.ClientRunning > 0 && t.running >= s.caps.ClientRunning {
				continue
			}
			eligible++
			if c := t.queues[band][0].cost(); c > maxCost {
				maxCost = c
			}
		}
		if eligible == 0 {
			continue
		}
		// Enough rotations to top any eligible tenant's deficit past its
		// head job's cost, plus one serving pass.
		rounds := len(s.ring) * (maxCost/s.caps.Quantum + 2)
		for i := 0; i < rounds; i++ {
			c := s.ring[s.cursor]
			t := s.tenants[c]
			if len(t.queues[band]) > 0 &&
				(s.caps.ClientRunning <= 0 || t.running < s.caps.ClientRunning) {
				j := t.queues[band][0]
				if t.deficit >= j.cost() {
					t.deficit -= j.cost()
					t.queues[band] = t.queues[band][1:]
					t.queued--
					s.queued--
					if t.empty() {
						s.leaveRingLocked(c)
					}
					return j
				}
				t.deficit += s.caps.Quantum
			}
			s.cursor = (s.cursor + 1) % len(s.ring)
		}
	}
	return nil
}

// RunHandle identifies one execution of a job. Cancel handles are keyed
// by handle, not just by job, because a preempted job can be re-queued
// and re-claimed by another worker before the first worker's deferred
// EndRun runs — EndRun must release only its own registration, never the
// newer run's.
type RunHandle struct {
	cancel context.CancelCauseFunc
}

// BeginRun registers the running job's cancel-cause handle (derived from
// the server's root context) and returns the context its runner must
// honor. An abort or preemption requested in the window before
// registration fires immediately.
func (s *Store) BeginRun(j *Job, parent context.Context) (context.Context, *RunHandle) {
	ctx, cancel := context.WithCancelCause(parent)
	h := &RunHandle{cancel: cancel}
	s.mu.Lock()
	s.cancels[j] = h
	aborting, preempting := j.Aborting, j.Preempting
	s.mu.Unlock()
	if aborting {
		cancel(supervise.ErrAborted)
	} else if preempting {
		cancel(supervise.ErrPreempted)
	}
	return ctx, h
}

// EndRun releases the run's cancel registration (and its context
// resources) — only if the job's current registration is still this run's.
func (s *Store) EndRun(j *Job, h *RunHandle) {
	s.mu.Lock()
	if s.cancels[j] == h {
		delete(s.cancels, j)
	}
	s.mu.Unlock()
	h.cancel(nil)
}

// PreemptFor picks a victim to make room for queued job j: the running
// job with the lowest priority strictly below j's (tie broken toward the
// most recently started — the least checkpoint progress to discard), not
// already aborting or preempting. The victim is cancelled with the
// preemption cause; its runner unwind parks it on its checkpoint and
// re-queues it. Returns nil when every worker slot is free or no running
// job ranks below j.
func (s *Store) PreemptFor(j *Job) *Job {
	s.mu.Lock()
	if s.running < s.caps.Pool || j.Status != StatusQueued {
		s.mu.Unlock()
		return nil
	}
	var victim *Job
	for cand := range s.cancels {
		if cand.Status != StatusRunning || cand.Aborting || cand.Preempting {
			continue
		}
		if cand.Priority >= j.Priority {
			continue
		}
		if victim == nil || cand.Priority < victim.Priority ||
			(cand.Priority == victim.Priority && cand.Started.After(victim.Started)) {
			victim = cand
		}
	}
	var h *RunHandle
	if victim != nil {
		victim.Preempting = true
		h = s.cancels[victim]
	}
	s.mu.Unlock()
	if h != nil {
		h.cancel(supervise.ErrPreempted)
	}
	return victim
}

// AbortOutcome says what a cancellation request did.
type AbortOutcome int

const (
	// AbortQueued: the job was pulled from its queue; terminal now.
	AbortQueued AbortOutcome = iota
	// AbortRunning: the running job was cancelled; its runner unwind
	// finishes it as aborted (the terminal record is already journaled).
	AbortRunning
	// AbortParked: the job was parked (interrupted by a drain); marked
	// aborted so a restart does not resume it.
	AbortParked
	// AbortRepeat: the job is already aborted or aborting — idempotent
	// success, nothing journaled again.
	AbortRepeat
	// AbortConflict: the job already reached a different terminal state.
	AbortConflict
	// AbortWithdrawn: the job's submitted record could not be journaled
	// and Unaccept withdrew it; there is no job to abort.
	AbortWithdrawn
)

// Abort requests cancellation of a job. The caller journals the terminal
// aborted record before acknowledging for the AbortQueued, AbortRunning
// and AbortParked outcomes; this method only mutates scheduler state.
//
// A client can learn a new job's ID from a duplicate's response before
// the job's submitted record is journaled. Abort on such a job waits for
// Commit or Unaccept: an aborted record journaled ahead of the submitted
// one would let replay re-queue a job whose abort was acknowledged.
func (s *Store) Abort(j *Job) AbortOutcome {
	s.mu.Lock()
	for j.uncommitted {
		s.cond.Wait()
	}
	switch {
	case s.byKey[j.Key] != j:
		s.mu.Unlock()
		return AbortWithdrawn
	case j.Status == StatusAborted || j.Aborting:
		s.mu.Unlock()
		return AbortRepeat
	case j.Status == StatusDone || j.Status == StatusFailed:
		s.mu.Unlock()
		return AbortConflict
	case j.Status == StatusQueued:
		s.dequeueLocked(j)
		s.markAbortedLocked(j)
		s.mu.Unlock()
		return AbortQueued
	case j.Status == StatusInterrupted:
		s.markAbortedLocked(j)
		s.mu.Unlock()
		return AbortParked
	default: // running
		j.Aborting = true
		h := s.cancels[j]
		s.mu.Unlock()
		if h != nil {
			h.cancel(supervise.ErrAborted)
		}
		return AbortRunning
	}
}

// markAbortedLocked pins a non-running job terminal-aborted. Callers
// hold s.mu.
func (s *Store) markAbortedLocked(j *Job) {
	j.Status = StatusAborted
	j.Resume = false
	j.Result, j.Error, j.ErrKind = nil, "aborted by client", "aborted"
	j.Finished = time.Now()
}

// Drain flips the store into drain mode: Next stops handing out work and
// blocked workers wake up. Queued jobs stay queued — their submitted
// outbox records carry them across the restart.
func (s *Store) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Draining reports drain mode (readiness checks key off this).
func (s *Store) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// AppendAttempt streams one supervised attempt into the job.
func (s *Store) AppendAttempt(j *Job, a supervise.Attempt) {
	s.mu.Lock()
	j.Attempts = append(j.Attempts, a)
	s.mu.Unlock()
}

// Finish records a job's terminal (or interrupted) outcome and releases
// its worker slot. An aborting job's outcome is pinned to aborted — its
// terminal record is already journaled, so a result that raced the abort
// is discarded rather than contradicting the journal.
func (s *Store) Finish(j *Job, status string, res *Result, errMsg, errKind string) {
	s.FinishObserved(j, status, res, errMsg, errKind, nil)
}

// FinishObserved is Finish with a completion hook: observe (when non-nil)
// runs with the store lock held, after the abort-pinning decision but
// before the terminal status becomes visible to Snapshot or WaitStatus.
// Counters bumped inside the hook are therefore readable by the time any
// client observes the terminal status; without it, a poller that has just
// seen "done" can read a metric in the window between the status flip and
// the accounting. The hook receives the pinned final status and must not
// call back into the store.
func (s *Store) FinishObserved(j *Job, status string, res *Result, errMsg, errKind string, observe func(finalStatus string)) {
	s.mu.Lock()
	if j.Aborting {
		status, res, errMsg, errKind = StatusAborted, nil, "aborted by client", "aborted"
	}
	if observe != nil {
		observe(status)
	}
	j.Status = status
	j.Result = res
	j.Error = errMsg
	j.ErrKind = errKind
	j.Finished = time.Now()
	s.running--
	if t, ok := s.tenants[j.Client]; ok {
		t.running--
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Requeue parks a preempted job back onto its tenant's queue, marked
// resumable: its next run picks up the certified checkpoint and continues
// the same passage. Releases the worker slot. Returns false without
// re-queueing if an abort raced the preemption (its terminal record is
// already journaled — resurrecting the job would contradict it); the job
// is finished as aborted instead.
func (s *Store) Requeue(j *Job) bool {
	s.mu.Lock()
	if j.Aborting {
		j.Status = StatusAborted
		j.Result, j.Error, j.ErrKind = nil, "aborted by client", "aborted"
		j.Preempting = false
		j.Finished = time.Now()
		s.running--
		if t, ok := s.tenants[j.Client]; ok {
			t.running--
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return false
	}
	j.Status = StatusQueued
	j.Resume = true
	j.Preempting = false
	j.Preemptions++
	j.Started = time.Time{}
	s.running--
	if t, ok := s.tenants[j.Client]; ok {
		t.running--
	}
	s.enqueueLocked(j)
	s.mu.Unlock()
	return true
}

// Unaccept withdraws an admitted (SubmitNew) job whose submitted record
// could not be journaled, in place of Commit. The store goes back to what
// Submit found: a new key is forgotten, and a re-run job gets its previous
// terminal state back, so the store holds nothing the journal cannot
// replay. An Abort waiting on the job then finds it withdrawn or back in
// its terminal state.
func (s *Store) Unaccept(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior := j.prior; prior == nil {
		delete(s.byKey, j.Key)
	} else {
		*j = *prior
	}
	j.prior = nil
	j.uncommitted = false
	s.cond.Broadcast()
}

// Idle reports no running jobs (drain waits on this).
func (s *Store) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running == 0
}

// WaitIdle blocks until no job is running or the deadline passes,
// reporting whether the store went idle.
func (s *Store) WaitIdle(deadline time.Time) bool {
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.running > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Until(deadline)):
		return false
	}
}

// QueueDepth returns the queued-job count across all tenants.
func (s *Store) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// ClientBacklog returns one tenant's queued-job count.
func (s *Store) ClientBacklog(client string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[client]; ok {
		return t.queued
	}
	return 0
}

// ClientQueues snapshots per-tenant queue depths (metrics exposition).
func (s *Store) ClientQueues() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.tenants))
	for c, t := range s.tenants {
		out[c] = t.queued
	}
	return out
}

// ClientSheds snapshots per-tenant shed counts (metrics exposition).
func (s *Store) ClientSheds() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tenants))
	for c, t := range s.tenants {
		if t.shed > 0 {
			out[c] = t.shed
		}
	}
	return out
}

// QueueWait reports the queue-wait summary (count, sum and max seconds).
func (s *Store) QueueWait() (count int64, sum, max float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitCount, s.waitSum, s.waitMax
}

// Running returns the running-job count.
func (s *Store) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Lookup returns the job with the given ID (IDs are key-derived, so this
// scans the table; job counts are small — bounded by distinct identities).
func (s *Store) Lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.byKey {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// View is a consistent snapshot of a job for serialization.
type View struct {
	ID          string              `json:"job_id"`
	Key         string              `json:"key"`
	Status      string              `json:"status"`
	Client      string              `json:"client"`
	Priority    string              `json:"priority"`
	Request     Request             `json:"request"`
	Resumed     bool                `json:"resumed,omitempty"`
	Preemptions int                 `json:"preemptions,omitempty"`
	Submitted   time.Time           `json:"submitted"`
	Started     *time.Time          `json:"started,omitempty"`
	Finished    *time.Time          `json:"finished,omitempty"`
	Attempts    []supervise.Attempt `json:"attempts,omitempty"`
	Result      *Result             `json:"result,omitempty"`
	Error       string              `json:"error,omitempty"`
	ErrKind     string              `json:"err_kind,omitempty"`
	DedupHits   int                 `json:"dedup_hits,omitempty"`
	CacheHits   int                 `json:"cache_hits,omitempty"`

	// checkpointPath rides along unserialized so runners know where the
	// job snapshots without holding the store's lock.
	checkpointPath string
}

// Snapshot copies the job out under the lock.
func (s *Store) Snapshot(j *Job) View {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		ID:             j.ID,
		Key:            j.Key,
		Status:         j.Status,
		Client:         j.Client,
		Priority:       PriorityName(j.Priority),
		Request:        j.Request,
		Resumed:        j.Resume,
		Preemptions:    j.Preemptions,
		Submitted:      j.Submitted,
		checkpointPath: j.CheckpointPath,
		Attempts:       append([]supervise.Attempt(nil), j.Attempts...),
		Result:         j.Result,
		Error:          j.Error,
		ErrKind:        j.ErrKind,
		DedupHits:      j.DedupHits,
		CacheHits:      j.CacheHits,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// All snapshots every job, newest submission first.
func (s *Store) All() []View {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.byKey))
	for _, j := range s.byKey {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, s.Snapshot(j))
	}
	for i := 0; i < len(views); i++ {
		for k := i + 1; k < len(views); k++ {
			if views[k].Submitted.After(views[i].Submitted) {
				views[i], views[k] = views[k], views[i]
			}
		}
	}
	return views
}
