package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tradingfences/internal/supervise"
)

// Config sizes a daemon.
type Config struct {
	// DataDir holds the outbox journal, its compact snapshot and per-job
	// checkpoints. Required.
	DataDir string
	// Pool is the number of concurrent job workers (default 1).
	Pool int
	// QueueCap bounds the global queued-job backlog; a full queue sheds
	// new submissions with 429 + Retry-After (default 64; <= 0 keeps the
	// default — an unbounded queue is exactly the failure mode this
	// daemon exists to rule out).
	QueueCap int
	// QuotaQueued bounds each client's queued jobs (default 16; < 0
	// unlimited). A client over its own cap is shed with a per-client 429
	// even when the global queue has room — one tenant's flood never
	// costs another tenant a slot.
	QuotaQueued int
	// QuotaRunning bounds each client's concurrently running jobs
	// (default 0 = unlimited). Enforced by the scheduler: a client at its
	// cap keeps its jobs queued while other tenants' work runs.
	QuotaRunning int
	// DisablePreempt turns off checkpoint preemption: without it, a
	// higher-priority submission arriving with every worker slot busy
	// cancels the lowest-priority running job onto its certified
	// checkpoint and re-queues it resumable.
	DisablePreempt bool
	// CompactBytes is the journal size that triggers an outbox compaction
	// cycle (default 4 MiB; < 0 disables compaction entirely, including
	// the clean-shutdown cycle).
	CompactBytes int64
	// DrainGrace is how long a drain waits for running jobs to finish
	// before cancelling them onto their checkpoints (default 10s).
	DrainGrace time.Duration
	// Runner executes jobs (default FacadeRunner). Injectable for tests.
	Runner Runner
	// DecisionLog receives one JSON line per scheduling decision —
	// accept/dedup/cache/shed, abort/preempt, attempt escalations with
	// their ErrKind, terminal outcomes, compactions (default os.Stderr).
	DecisionLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.QuotaQueued == 0 {
		c.QuotaQueued = 16
	}
	if c.QuotaQueued < 0 {
		c.QuotaQueued = 0 // store convention: 0 = unlimited
	}
	if c.QuotaRunning < 0 {
		c.QuotaRunning = 0
	}
	if c.CompactBytes == 0 {
		c.CompactBytes = 4 << 20
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.Runner == nil {
		c.Runner = FacadeRunner{}
	}
	if c.DecisionLog == nil {
		c.DecisionLog = os.Stderr
	}
	return c
}

// Server is the verification daemon: a bounded worker pool over the job
// store, journaling through the outbox, fronted by the HTTP API.
type Server struct {
	cfg     Config
	store   *Store
	outbox  *Outbox
	metrics *Metrics

	ctx    context.Context // root context of running jobs; cancelled on hard stop
	cancel context.CancelFunc
	wg     sync.WaitGroup

	logMu     sync.Mutex
	compactMu sync.Mutex // one compaction cycle at a time
}

// OutboxPath and CheckpointDir locate the daemon's state inside dataDir.
func OutboxPath(dataDir string) string    { return filepath.Join(dataDir, "outbox.jsonl") }
func CheckpointDir(dataDir string) string { return filepath.Join(dataDir, "checkpoints") }
func (s *Server) checkpointDir() string   { return CheckpointDir(s.cfg.DataDir) }
func (s *Server) checkpointPath(key string) string {
	return CheckpointPath(s.checkpointDir(), key)
}

// New builds a daemon over dataDir, replaying the snapshot + outbox:
// completed jobs populate the result cache, in-flight ones re-enter the
// queue marked for checkpoint resume, and records that fail identity
// certification are dropped (counted, logged, re-run on demand).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if err := os.MkdirAll(CheckpointDir(cfg.DataDir), 0o755); err != nil {
		return nil, err
	}
	sweepOrphanedTemps(cfg.DataDir)
	recs, err := ReadJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	store := NewStore(Caps{
		QueueCap:      cfg.QueueCap,
		ClientQueued:  cfg.QuotaQueued,
		ClientRunning: cfg.QuotaRunning,
		Pool:          cfg.Pool,
	})
	jobs, dropped := Replay(recs, CheckpointDir(cfg.DataDir))
	outbox, err := OpenOutbox(OutboxPath(cfg.DataDir))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   store,
		outbox:  outbox,
		metrics: NewMetrics(store),
		ctx:     ctx,
		cancel:  cancel,
	}
	s.metrics.ReplayDropped.Add(int64(dropped))
	for _, j := range jobs {
		store.Restore(j)
		if j.Status == StatusQueued {
			s.metrics.JobsResumed.Add(1)
			s.decision("replay_resume", map[string]any{"job": j.ID, "key": j.Key})
		}
	}
	if dropped > 0 {
		s.decision("replay_dropped", map[string]any{"records": dropped})
	}
	return s, nil
}

// sweepOrphanedTemps removes temp files orphaned by a crash mid-atomic-
// write (SIGKILL between CreateTemp and the rename): checkpoint snapshot
// temps, outbox snapshot temps and journal-rewrite temps. They certify
// nothing, are invisible to every load path, and would otherwise
// accumulate forever. Startup is the one safe moment — the daemon owns
// the directory and no write is in flight yet.
func sweepOrphanedTemps(dataDir string) {
	for dir, marker := range map[string]string{
		CheckpointDir(dataDir): ".ckpt.tmp",
		dataDir:                ".tmp",
	} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !e.IsDir() && strings.Contains(e.Name(), marker) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// Metrics exposes the instrument panel (tests scrape it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the job table (tests inspect it directly).
func (s *Server) Store() *Store { return s.store }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Pool; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.store.Next()
				if j == nil {
					return // draining
				}
				s.runJob(j)
			}
		}()
	}
}

// Drain refuses new work (submissions 503, readyz 503), lets running jobs
// finish within the grace period, then cancels them — the supervisor's
// periodic snapshots mean a cancelled job's certified checkpoint is
// already on disk, and its submitted outbox record (with no terminal
// event) re-enqueues it on the next start. Queued jobs are parked the
// same way. A final compaction cycle folds the journal before the outbox
// closes. Returns once every worker has exited.
func (s *Server) Drain() {
	s.decision("drain", map[string]any{"grace_ms": s.cfg.DrainGrace.Milliseconds()})
	s.store.Drain()
	if !s.store.WaitIdle(time.Now().Add(s.cfg.DrainGrace)) {
		s.decision("drain_cancel", map[string]any{"running": s.store.Running()})
		s.cancel()
		s.store.WaitIdle(time.Now().Add(s.cfg.DrainGrace))
	}
	s.wg.Wait()
	if s.cfg.CompactBytes >= 0 {
		s.compact("shutdown")
	}
	s.outbox.Close()
}

// maybeCompact runs a compaction cycle if the journal has outgrown the
// configured threshold. Called after terminal journal appends, on the
// worker (or handler) goroutine that crossed the threshold — the cycle
// is two file writes, bounded and rare.
func (s *Server) maybeCompact() {
	if s.cfg.CompactBytes <= 0 || s.outbox.Size() < s.cfg.CompactBytes {
		return
	}
	s.compact("threshold")
}

func (s *Server) compact(reason string) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	stats, err := s.outbox.Compact(s.cfg.DataDir)
	if err != nil {
		s.decision("compact_failed", map[string]any{"reason": reason, "err": err.Error()})
		return
	}
	s.metrics.Compactions.Add(1)
	s.metrics.CompactReclaimed.Add(stats.Reclaimed)
	s.decision("compact", map[string]any{
		"reason": reason, "folded": stats.Folded,
		"in_flight": stats.InFlight, "reclaimed_bytes": stats.Reclaimed,
	})
}

// runJob executes one job end to end: journal start, run with the job's
// deadline, journal and record the outcome. Cancellation unwinds by
// cause: aborts are terminal (already journaled by the handler),
// preemptions park the job on its checkpoint and re-queue it resumable,
// drains park it for the next incarnation.
func (s *Server) runJob(j *Job) {
	jobCtx, run := s.store.BeginRun(j, s.ctx)
	defer s.store.EndRun(j, run)
	view := s.store.Snapshot(j)
	s.outbox.Append(Record{Event: EventStarted, Job: j.ID, Key: j.Key, Resume: view.Resumed})
	s.decision("start", map[string]any{
		"job": j.ID, "resume": view.Resumed,
		"client": view.Client, "priority": view.Priority,
	})

	ctx := jobCtx
	var cancel context.CancelFunc
	if t := view.Request.Timeout(); t > 0 {
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	start := time.Now()
	onAttempt := func(a supervise.Attempt) {
		s.store.AppendAttempt(j, a)
		s.metrics.Attempts.Add(1)
		if a.Index > 0 {
			s.metrics.Escalations.Add(1)
		}
		s.metrics.EngineSteals.Add(a.Steals)
		s.metrics.EngineDonated.Add(a.Donated)
		s.metrics.EngineParks.Add(a.Parks)
		s.metrics.EngineCheckpoints.Add(a.Checkpoints)
		s.decision("attempt", map[string]any{
			"job": j.ID, "index": a.Index, "workers": a.Workers,
			"states": a.States, "resumed_level": a.ResumedLevel,
			"steals": a.Steals, "parks": a.Parks,
			"err_kind": a.ErrKind, "err": a.Err,
			"checkpoint_rejected": a.CheckpointRejected,
		})
	}
	res, err := s.cfg.Runner.Run(ctx, view, onAttempt)
	wall := time.Since(start)
	kind := supervise.ClassifyCancel(jobCtx, err)

	switch {
	case err != nil && kind == "aborted":
		// Client abort — the terminal aborted record was journaled by the
		// DELETE handler before the cancellation fired; Finish pins the
		// outcome to aborted (discarding any racing result).
		s.store.FinishObserved(j, StatusAborted, nil, err.Error(), "aborted",
			func(string) { s.metrics.JobsAborted.Add(1) })
		s.decision("aborted", map[string]any{"job": j.ID, "where": "running"})
		s.maybeCompact()
	case err != nil && kind == "preempted":
		// Preemption — park on the certified checkpoint, journal the
		// informational event, and re-queue resumable: the job continues
		// as the same passage when a slot frees up. No terminal event, so
		// a crash in between still resumes it on restart. An abort that
		// raced the preemption wins (its terminal record is journaled);
		// Requeue then finishes the job as aborted instead.
		if s.store.Requeue(j) {
			s.outbox.Append(Record{Event: EventPreempted, Job: j.ID, Key: j.Key})
			s.metrics.Preemptions.Add(1)
			s.decision("preempted", map[string]any{"job": j.ID, "states": partialStates(j, s.store)})
		} else {
			s.metrics.JobsAborted.Add(1)
			s.decision("aborted", map[string]any{"job": j.ID, "where": "preempt_race"})
		}
	case err != nil && s.interrupted(err):
		// Drain cancellation — checked before the result, because a
		// cancelled supervised run still returns its partial verdict, and
		// journaling that as terminal would stop the restart from
		// resuming the job. Park it instead: no terminal outbox event, so
		// the dangling submitted record re-enqueues it on the next start,
		// picking up the checkpoint the run left on disk.
		s.store.FinishObserved(j, StatusInterrupted, nil, err.Error(), supervise.ClassifyErr(err),
			func(final string) {
				if final == StatusInterrupted {
					s.metrics.JobsInterrupted.Add(1)
				} else {
					s.metrics.JobsAborted.Add(1)
				}
			})
		s.decision("interrupted", map[string]any{"job": j.ID, "err_kind": supervise.ClassifyErr(err)})
	case res != nil:
		// A result — authoritative, degraded or partial — is a completed
		// job; the limit error that degraded it (a per-job deadline, a
		// non-degradable budget trip) is already reflected in the
		// result's mode/verdict fields. An abort that raced completion
		// wins: Finish pins the aborted outcome the handler journaled.
		// The counters are bumped inside the finish hook — before the
		// terminal status is visible — so a client that has polled its way
		// to "done" is guaranteed to see the job's states in /metrics.
		counted := false
		s.store.FinishObserved(j, StatusDone, res, "", "", func(final string) {
			if final != StatusDone {
				return
			}
			s.metrics.JobsDone.Add(1)
			s.metrics.StatesExplored.Add(int64(res.States))
			s.metrics.ObserveThroughput(res.States, wall.Seconds())
			counted = true
		})
		if counted {
			s.outbox.Append(Record{Event: EventDone, Job: j.ID, Key: j.Key, Result: res})
			s.decision("done", map[string]any{
				"job": j.ID, "states": res.States, "wall_ms": wall.Milliseconds(),
				"authoritative": res.Authoritative,
			})
		} else {
			s.metrics.JobsAborted.Add(1)
			s.decision("aborted", map[string]any{"job": j.ID, "where": "finish_race"})
		}
		s.maybeCompact()
	default:
		msg := "runner returned neither result nor error"
		if err != nil {
			msg = err.Error()
		}
		failed := false
		s.store.FinishObserved(j, StatusFailed, nil, msg, kind, func(final string) {
			if final != StatusFailed {
				return
			}
			s.metrics.JobsFailed.Add(1)
			failed = true
		})
		if !failed {
			s.metrics.JobsAborted.Add(1)
			s.decision("aborted", map[string]any{"job": j.ID, "where": "finish_race"})
		} else {
			s.outbox.Append(Record{Event: EventFailed, Job: j.ID, Key: j.Key, Error: msg, ErrKind: kind})
			s.decision("failed", map[string]any{"job": j.ID, "err_kind": kind, "err": msg})
		}
		s.maybeCompact()
	}
}

// partialStates reads the job's last attempt's state count (decision-log
// color for preemptions; 0 when no attempt reported yet).
func partialStates(j *Job, store *Store) int {
	v := store.Snapshot(j)
	if len(v.Attempts) == 0 {
		return 0
	}
	return v.Attempts[len(v.Attempts)-1].States
}

// interrupted reports whether err is the daemon's own drain cancellation
// (as opposed to the job's per-request deadline, which is a job failure).
func (s *Server) interrupted(err error) bool {
	return s.ctx.Err() != nil && supervise.ClassifyErr(err) == "canceled"
}

// decision writes one structured decision-log line.
func (s *Server) decision(event string, fields map[string]any) {
	entry := map[string]any{"ts": time.Now().UTC().Format(time.RFC3339Nano), "event": event}
	for k, v := range fields {
		entry[k] = v
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.DecisionLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// Handler builds the HTTP API:
//
//	POST   /v1/jobs     submit (idempotent; 200 cached, 202 accepted/joined,
//	                    429 quota/saturation shed, 503 draining)
//	GET    /v1/jobs     list all jobs
//	GET    /v1/jobs/:id job status, streamed attempts, result
//	DELETE /v1/jobs/:id abort a queued or running job (idempotent; 409
//	                    for jobs already done or failed)
//	GET    /metrics     Prometheus text exposition
//	GET    /healthz     process liveness (always 200 while serving)
//	GET    /readyz      200 accepting, 503 draining
//
// Client identity is taken from the X-API-Key header, else X-Client-ID,
// else the default bucket; quotas, fair scheduling and shed decisions are
// all per-client.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, s.store.All())
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		j := s.store.Lookup(id)
		if j == nil {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, s.store.Snapshot(j))
		case http.MethodDelete:
			s.handleAbort(w, r, j)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.store.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	return s.observe(mux)
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	// Dedup: joined an in-flight identical job. Cached: served from a
	// completed identical job's result (carried in Result).
	Dedup  bool    `json:"dedup,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// ClientID extracts the tenant identity from a submission: the X-API-Key
// header, else X-Client-ID, else the default bucket. Sanitized to a
// label-safe alphabet so tenant names flow into Prometheus labels and
// decision logs verbatim.
func ClientID(r *http.Request) string {
	id := r.Header.Get("X-API-Key")
	if id == "" {
		id = r.Header.Get("X-Client-ID")
	}
	if id == "" {
		return DefaultClient
	}
	var b strings.Builder
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 64 {
			break
		}
	}
	return b.String()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := ClientID(r)
	if s.store.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterDrain()))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req Request
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, _, err := req.Normalize(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	priority, _ := ParsePriority(req.Priority) // Normalize validated it
	key := req.Key()
	j, outcome := s.store.Submit(req, key, s.checkpointPath(key), client, priority)
	switch outcome {
	case SubmitRejected, SubmitRejectedQuota:
		// Both sheds answer 429; Retry-After is derived from the
		// *client's own* backlog — a polite client shed by the global
		// backstop is told to come back soon, a flooder is told to come
		// back after its own queue would drain.
		scope := "queue"
		if outcome == SubmitRejectedQuota {
			scope = "quota"
		}
		s.metrics.JobsRejected.Add(1)
		s.decision("shed", map[string]any{
			"key": key, "client": client, "scope": scope,
			"client_queue": s.store.ClientBacklog(client), "queue": s.store.QueueDepth(),
		})
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterClient(client)))
		http.Error(w, scope+" saturated", http.StatusTooManyRequests)
		return
	case SubmitDedup:
		s.metrics.DedupHits.Add(1)
		s.decision("dedup", map[string]any{"job": j.ID, "client": client})
		if !s.cfg.DisablePreempt {
			s.preempt(j)
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: j.ID, Status: s.store.Snapshot(j).Status, Dedup: true})
		return
	case SubmitCached:
		s.metrics.CacheHits.Add(1)
		s.decision("cache_hit", map[string]any{"job": j.ID, "client": client})
		v := s.store.Snapshot(j)
		writeJSON(w, http.StatusOK, SubmitResponse{JobID: j.ID, Status: v.Status, Cached: true, Result: v.Result})
		return
	default:
		// Journal before acknowledging: an accepted job must survive a
		// crash. A journal failure withdraws the job (Store.Unaccept).
		if err := s.outbox.Append(Record{
			Event: EventSubmitted, Job: j.ID, Key: key,
			Identity: req.identity(), Request: &req,
			Client: client, Priority: PriorityName(priority),
		}); err != nil {
			s.store.Unaccept(j)
			http.Error(w, "journal unavailable", http.StatusInternalServerError)
			return
		}
		// Only now does the job become schedulable: a worker must never
		// journal its start or outcome ahead of its submitted record.
		s.store.Commit(j)
		s.metrics.JobsSubmitted.Add(1)
		s.decision("accept", map[string]any{
			"job": j.ID, "op": req.Op, "lock": req.Lock, "n": req.N, "model": req.Model,
			"client": client, "priority": PriorityName(priority),
		})
		if !s.cfg.DisablePreempt {
			s.preempt(j)
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: j.ID, Status: StatusQueued})
	}
}

// preempt asks the store for a victim to make room for j and logs the
// eviction; the victim's runner unwind does the parking.
func (s *Server) preempt(j *Job) {
	victim := s.store.PreemptFor(j)
	if victim == nil {
		return
	}
	s.decision("preempt", map[string]any{
		"job": victim.ID, "for": j.ID,
		"victim_priority": PriorityName(victim.Priority), "priority": PriorityName(j.Priority),
	})
}

// handleAbort serves DELETE /v1/jobs/:id. The terminal aborted record is
// journaled before the acknowledgement for every outcome that changes
// state; repeats are idempotent 200s, and a job that already reached a
// different terminal state is a 409.
func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request, j *Job) {
	client := ClientID(r)
	outcome := s.store.Abort(j)
	switch outcome {
	case AbortWithdrawn:
		http.Error(w, "no such job", http.StatusNotFound)
		return
	case AbortConflict:
		writeJSON(w, http.StatusConflict, s.store.Snapshot(j))
		return
	case AbortRepeat:
		writeJSON(w, http.StatusOK, SubmitResponse{JobID: j.ID, Status: StatusAborted})
		return
	}
	// AbortQueued, AbortParked, AbortRunning: journal the terminal
	// outcome before acknowledging. For a running job the cancellation
	// has already fired; its runner unwind finds Aborting set and pins
	// the outcome, never journaling a contradicting terminal event.
	if err := s.outbox.Append(Record{
		Event: EventAborted, Job: j.ID, Key: j.Key,
		Error: "aborted by client", Client: client,
	}); err != nil {
		http.Error(w, "journal unavailable", http.StatusInternalServerError)
		return
	}
	where := map[AbortOutcome]string{
		AbortQueued: "queued", AbortParked: "parked", AbortRunning: "running",
	}[outcome]
	if outcome != AbortRunning {
		// Queued/parked jobs never reach a runner unwind; count them here.
		s.metrics.JobsAborted.Add(1)
	}
	s.decision("abort", map[string]any{"job": j.ID, "client": client, "where": where})
	s.maybeCompact()
	writeJSON(w, http.StatusOK, SubmitResponse{JobID: j.ID, Status: StatusAborted})
}

// retryAfterClient estimates how long a shed client should wait: its own
// backlog divided over its fair share of the pool, floored at one second,
// capped at a minute. A flooder's hint reflects the flooder's queue, not
// the queue it inflicted on everyone else.
func (s *Server) retryAfterClient(client string) int {
	return boundRetry(s.store.ClientBacklog(client) / s.cfg.Pool)
}

// retryAfterDrain estimates a drain-time hint: the daemon is going away,
// so the client should come back after the grace period a restart will
// take plus however long the parked backlog needs.
func (s *Server) retryAfterDrain() int {
	grace := int(s.cfg.DrainGrace / time.Second)
	return boundRetry(grace + (s.store.QueueDepth()+s.store.Running())/s.cfg.Pool)
}

func boundRetry(sec int) int {
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// observe wraps the mux with the HTTP status-code counter.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.metrics.ObserveHTTP(rec.code)
	})
}

type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (r *codeRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
