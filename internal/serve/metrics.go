package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is the daemon's Prometheus-style instrument panel. Counters are
// atomics; the handful of labeled series use a small mutexed map or read
// through the store. No client library — the text exposition format is a
// few lines of fmt.
type Metrics struct {
	JobsSubmitted   atomic.Int64 // fresh jobs accepted
	JobsDone        atomic.Int64
	JobsFailed      atomic.Int64
	JobsInterrupted atomic.Int64
	JobsAborted     atomic.Int64 // jobs cancelled by clients (DELETE)
	JobsResumed     atomic.Int64 // jobs re-enqueued by outbox replay
	JobsRejected    atomic.Int64 // 429s (per-client quota or global queue)
	DedupHits       atomic.Int64 // duplicate submissions joined in-flight jobs
	CacheHits       atomic.Int64 // submissions served from completed results
	ReplayDropped   atomic.Int64 // outbox records failing identity certification

	Preemptions      atomic.Int64 // running jobs parked onto checkpoints for higher-priority work
	Compactions      atomic.Int64 // outbox snapshot+truncate cycles
	CompactReclaimed atomic.Int64 // journal bytes reclaimed by compaction

	StatesExplored atomic.Int64 // total visited states across completed jobs
	Attempts       atomic.Int64 // supervised attempts across all jobs
	Escalations    atomic.Int64 // attempts after the first (retry-ladder rungs)

	// Work-stealing engine counters, aggregated across attempts: whether
	// exploration is scaling (steals) or contending (parks).
	EngineSteals      atomic.Int64
	EngineDonated     atomic.Int64
	EngineParks       atomic.Int64
	EngineCheckpoints atomic.Int64

	// statesPerSec is the last completed job's throughput ×1000 (stored
	// as an int for atomicity).
	statesPerSecMilli atomic.Int64

	queueDepth   func() int
	running      func() int
	draining     func() bool
	clientQueues func() map[string]int
	clientSheds  func() map[string]int64
	queueWait    func() (int64, float64, float64)

	mu        sync.Mutex
	httpCodes map[int]int64
}

// NewMetrics wires the gauges to the store.
func NewMetrics(store *Store) *Metrics {
	return &Metrics{
		queueDepth:   store.QueueDepth,
		running:      store.Running,
		draining:     store.Draining,
		clientQueues: store.ClientQueues,
		clientSheds:  store.ClientSheds,
		queueWait:    store.QueueWait,
		httpCodes:    make(map[int]int64),
	}
}

// ObserveHTTP counts one served request by status code.
func (m *Metrics) ObserveHTTP(code int) {
	m.mu.Lock()
	m.httpCodes[code]++
	m.mu.Unlock()
}

// ObserveThroughput records a completed job's states/second.
func (m *Metrics) ObserveThroughput(states int, seconds float64) {
	if seconds <= 0 {
		return
	}
	m.statesPerSecMilli.Store(int64(float64(states) / seconds * 1000))
}

func writeMetric(w io.Writer, name, help, typ string, value any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
}

// writeLabeled emits one labeled series under a shared HELP/TYPE header,
// keys sorted for a stable exposition.
func writeLabeled[V int | int64](w io.Writer, name, help, typ, label string, values map[string]V) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %v\n", name, label, k, values[k])
	}
}

// WritePrometheus emits the exposition text.
func (m *Metrics) WritePrometheus(w io.Writer) {
	b := func() int {
		if m.draining() {
			return 1
		}
		return 0
	}
	writeMetric(w, "tfserve_queue_depth", "Jobs waiting for a worker slot.", "gauge", m.queueDepth())
	writeMetric(w, "tfserve_jobs_running", "Jobs currently exploring.", "gauge", m.running())
	writeMetric(w, "tfserve_draining", "1 while the daemon refuses new work (SIGTERM drain).", "gauge", b())
	writeMetric(w, "tfserve_jobs_submitted_total", "Fresh jobs accepted.", "counter", m.JobsSubmitted.Load())
	writeMetric(w, "tfserve_jobs_done_total", "Jobs finished with a result.", "counter", m.JobsDone.Load())
	writeMetric(w, "tfserve_jobs_failed_total", "Jobs finished with a hard error.", "counter", m.JobsFailed.Load())
	writeMetric(w, "tfserve_jobs_interrupted_total", "Jobs checkpointed and parked by a drain.", "counter", m.JobsInterrupted.Load())
	writeMetric(w, "tfserve_jobs_aborted_total", "Jobs cancelled by clients (DELETE /v1/jobs/:id).", "counter", m.JobsAborted.Load())
	writeMetric(w, "tfserve_jobs_resumed_total", "Jobs re-enqueued from the outbox on startup.", "counter", m.JobsResumed.Load())
	writeMetric(w, "tfserve_jobs_rejected_total", "Submissions shed with 429 (client quota or global queue).", "counter", m.JobsRejected.Load())
	writeMetric(w, "tfserve_preemptions_total", "Running jobs parked onto checkpoints for higher-priority work.", "counter", m.Preemptions.Load())
	writeMetric(w, "tfserve_compactions_total", "Outbox snapshot+truncate cycles.", "counter", m.Compactions.Load())
	writeMetric(w, "tfserve_compact_reclaimed_bytes_total", "Journal bytes reclaimed by compaction.", "counter", m.CompactReclaimed.Load())
	writeMetric(w, "tfserve_dedup_hits_total", "Duplicate submissions collapsed onto in-flight jobs.", "counter", m.DedupHits.Load())
	writeMetric(w, "tfserve_cache_hits_total", "Submissions served from completed results.", "counter", m.CacheHits.Load())
	writeMetric(w, "tfserve_replay_dropped_total", "Outbox records failing identity certification on replay.", "counter", m.ReplayDropped.Load())
	writeMetric(w, "tfserve_states_explored_total", "Visited states across completed explorations.", "counter", m.StatesExplored.Load())
	writeMetric(w, "tfserve_attempts_total", "Supervised attempts across all jobs.", "counter", m.Attempts.Load())
	writeMetric(w, "tfserve_escalations_total", "Retry-ladder rungs (attempts after the first).", "counter", m.Escalations.Load())
	writeMetric(w, "tfserve_engine_steals_total", "Frontier entries stolen across workers.", "counter", m.EngineSteals.Load())
	writeMetric(w, "tfserve_engine_donated_total", "Frontier entries donated to the steal queue.", "counter", m.EngineDonated.Load())
	writeMetric(w, "tfserve_engine_parks_total", "Times a worker parked waiting for stealable work.", "counter", m.EngineParks.Load())
	writeMetric(w, "tfserve_engine_checkpoints_total", "Checkpoint snapshots written by explorations.", "counter", m.EngineCheckpoints.Load())
	writeMetric(w, "tfserve_states_per_second", "Last completed job's exploration throughput.", "gauge",
		fmt.Sprintf("%.3f", float64(m.statesPerSecMilli.Load())/1000))

	count, sum, max := m.queueWait()
	fmt.Fprintf(w, "# HELP tfserve_queue_wait_seconds Time jobs spent queued before a worker claimed them.\n# TYPE tfserve_queue_wait_seconds summary\n")
	fmt.Fprintf(w, "tfserve_queue_wait_seconds_sum %.6f\ntfserve_queue_wait_seconds_count %d\n", sum, count)
	writeMetric(w, "tfserve_queue_wait_seconds_max", "Longest queue wait observed.", "gauge", fmt.Sprintf("%.6f", max))

	writeLabeled(w, "tfserve_client_queue_depth", "Queued jobs per client.", "gauge", "client", m.clientQueues())
	writeLabeled(w, "tfserve_client_shed_total", "Submissions shed per client (quota or queue saturation).", "counter", "client", m.clientSheds())

	m.mu.Lock()
	codes := make([]int, 0, len(m.httpCodes))
	for c := range m.httpCodes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(w, "# HELP tfserve_http_requests_total Served HTTP requests by status code.\n# TYPE tfserve_http_requests_total counter\n")
	for _, c := range codes {
		fmt.Fprintf(w, "tfserve_http_requests_total{code=\"%d\"} %d\n", c, m.httpCodes[c])
	}
	m.mu.Unlock()
}
