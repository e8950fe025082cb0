// Package serve is the crash-safe, idempotent verification daemon:
// checking-as-a-service over the supervised model checker and the fence
// synthesizer.
//
// Three robustness mechanisms make it safe to put in front of heavy,
// duplicate-laden traffic:
//
//   - Idempotent submission. Every request reduces to a canonical
//     identity — operation, lock, workload, memory model, crash budget,
//     the symmetry flag (which no longer changes the exploration), the
//     reorder bound, partial-order reduction and the synthesis oracle,
//     plus the identity schema, StateKey codec and checkpoint schema
//     versions that define when two explorations are interchangeable
//     (the same identity the checkpoint-certification machinery
//     enforces). The identity's hash is the job ID: duplicate
//     submissions collapse onto one in-flight exploration, and completed
//     authoritative results are served straight from the cache.
//
//   - Crash-safe persistence. Every accepted job is journaled to an
//     append-only JSONL outbox before it is acknowledged, and every
//     outcome after it completes; supervised runs checkpoint to disk at
//     the engine's quiescent barriers. A restarted daemon replays the journal: completed
//     results repopulate the cache, in-flight jobs re-enter the queue
//     and resume from their certified checkpoints instead of
//     recomputing. Records that fail identity certification (codec or
//     schema drift) are dropped and re-run fresh, never served stale.
//
//   - Graceful degradation. The queue is bounded — saturation sheds
//     load with 429 + Retry-After instead of growing without bound.
//     Per-job deadlines surface as the checker's degraded Mode/Coverage
//     verdicts, not truncation. A drain (SIGTERM) refuses new work,
//     gives running jobs a grace period, then cancels them onto their
//     checkpoints; the dangling journal records resume them on restart.
//
// Observability: Prometheus-style /metrics (queue depth, cache and dedup
// hit counters, states explored and states/second, attempts and
// escalations), /healthz and /readyz, and a structured JSON decision log
// of every accept/shed/dedup/attempt/outcome.
package serve
