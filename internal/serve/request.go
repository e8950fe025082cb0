package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"tradingfences"
	"tradingfences/internal/check"
	"tradingfences/internal/machine"
)

// IdentitySchemaVersion versions the canonical request identity below.
// Bumping it (because a field was added to the identity, or its encoding
// changed) invalidates every persisted result and in-flight job, the same
// way a StateKey codec bump invalidates checkpoints: old outbox records
// simply stop matching any key today's daemon can mint, so they are
// re-run fresh instead of being served stale.
//
// v2: added the "rme" op (recoverable mutual exclusion). The op field was
// always part of the identity, but v1 records predate passage accounting
// in check results, so the whole generation is invalidated.
//
// v3: the work-stealing DFS engine replaced the level-synchronous BFS and
// checkpoints moved to schema v4 (the ckpt= component below tracks that
// automatically); cached results from the old engine are invalidated
// because multi-worker runs no longer pin bit-identical witnesses and
// budget-trip state counts, so old and new outcomes are not comparable.
//
// v4: reorder-bounded buffer semantics and commit-step partial-order
// reduction joined the identity (reorder=/por= components). They change
// what is proved — a bounded run is a bounded certificate, a POR run a
// reduced-graph proof — so a reduced result must never be served for an
// unreduced request or vice versa; making them identity fields gives each
// (request, reduction) pair its own job, outbox record and checkpoint.
//
// v5: process-symmetry reduction was removed, and checkpoints moved to
// schema v8. The symmetry= component stays, but a symmetry=true request
// now runs the unreduced exploration; cached symmetry=true results hold
// orbit counts, so the whole generation is invalidated.
const IdentitySchemaVersion = 5

// Request operations.
const (
	OpCheck = "check"
	OpSynth = "synth"
	// OpRME checks recoverable mutual exclusion: a recoverable lock
	// (Request.Lock names one of tradingfences.RMELocks) under an
	// adversarial crash budget, reporting per-passage RMR watermarks.
	OpRME = "rme"
)

// Priority classes, in scheduling order. Priority is a run parameter, not
// identity: a high-priority duplicate of a queued low-priority job joins
// it and upgrades the shared job instead of forking a second exploration.
const (
	PriorityLow    = 0
	PriorityNormal = 1
	PriorityHigh   = 2
)

// ParsePriority maps the wire spelling to a class ("" = normal).
func ParsePriority(s string) (int, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("serve: unknown priority %q (want low, normal or high)", s)
}

// PriorityName is the canonical wire spelling of a class.
func PriorityName(p int) string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	}
	return "normal"
}

// Request is one verification job as submitted over the wire. Two groups
// of fields:
//
//   - Identity fields define the semantic question being asked (operation,
//     lock, workload size, memory model, crash budget, symmetry flag,
//     reorder bound, partial-order reduction, and for synthesis the
//     oracle). Two requests with equal identity are
//     interchangeable — same exploration, same answer — and the daemon
//     collapses them onto one job.
//   - Run parameters (budget, workers, seed, timeout) shape how the answer
//     is computed, not what it is. They are taken from the first
//     submission of an identity and ignored on duplicates, mirroring how
//     checkpoint resume takes identity from the snapshot and only run
//     parameters from the caller.
type Request struct {
	// Op is "check" (supervised mutual-exclusion check) or "synth"
	// (fence-placement synthesis).
	Op string `json:"op"`
	// Lock is the lock spec name ("bakery", "peterson-tso", "gt2", ...).
	Lock string `json:"lock"`
	// N is the process count; Passages the lock passages per process
	// (default 1).
	N        int `json:"n"`
	Passages int `json:"passages,omitempty"`
	// Model is the memory model ("sc", "tso", "pso"; case-insensitive).
	Model string `json:"model"`
	// MaxCrashes is the adversarial crash budget (check only).
	MaxCrashes int `json:"max_crashes,omitempty"`
	// Symmetry is accepted and kept in the identity, so a symmetry=true
	// request is its own job, but it runs the same unreduced exploration
	// as the plain request: process-symmetry reduction was removed, and
	// the flag no longer changes the verdict or the state count.
	Symmetry bool `json:"symmetry,omitempty"`
	// ReorderBound > 0 runs the exploration under reorder-bounded buffer
	// semantics (check/rme: bounded certificate, Proved suppressed;
	// synth: refute-only oracle). Identity, not a run parameter: the
	// bounded question is a different question.
	ReorderBound int `json:"reorder_bound,omitempty"`
	// POR enables commit-step partial-order reduction. Identity even
	// though verdict-preserving: the reduced exploration visits a
	// different state set, so its checkpoints and state counts are not
	// interchangeable with the unreduced run's.
	POR bool `json:"por,omitempty"`
	// Oracle selects the synthesis safety oracle ("exhaustive" or
	// "supervised"; synth only, default "exhaustive").
	Oracle string `json:"oracle,omitempty"`

	// Run parameters (not part of the identity).
	Workers        int   `json:"workers,omitempty"`
	MaxStates      int   `json:"max_states,omitempty"`
	MaxSteps       int64 `json:"max_steps,omitempty"`
	MaxMemMB       int   `json:"max_mem_mb,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	MaxOracleCalls int   `json:"max_oracle_calls,omitempty"`
	// Priority is the scheduling class ("low", "normal", "high"; default
	// "normal"). Not identity: it says how soon the answer is wanted, not
	// what the answer is — duplicates at different priorities collapse
	// onto one job at the highest requested class.
	Priority string `json:"priority,omitempty"`
}

// Normalize validates the request and rewrites its identity fields to
// canonical spelling (lock spec and model names as their parsers print
// them, defaults made explicit), so that equal identities encode to equal
// bytes. It returns the parsed spec and model for the runner.
func (r *Request) Normalize() (tradingfences.LockSpec, tradingfences.MemoryModel, error) {
	switch r.Op {
	case OpCheck, OpSynth, OpRME:
	default:
		return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: unknown op %q (want %q, %q or %q)", r.Op, OpCheck, OpSynth, OpRME)
	}
	var spec tradingfences.LockSpec
	if r.Op == OpRME {
		// Recoverable locks live in their own registry, not the LockSpec
		// namespace; the zero spec is returned and the runner dispatches on
		// the op. The bare name is already canonical.
		if !tradingfences.IsRMELock(r.Lock) {
			return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: unknown recoverable lock %q (want one of %v)", r.Lock, tradingfences.RMELocks())
		}
	} else {
		var err error
		spec, err = tradingfences.ParseLockSpec(r.Lock)
		if err != nil {
			return tradingfences.LockSpec{}, 0, err
		}
	}
	model, err := tradingfences.ParseMemoryModel(r.Model)
	if err != nil {
		return tradingfences.LockSpec{}, 0, err
	}
	if r.N < 2 {
		return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: n = %d, want >= 2", r.N)
	}
	if r.Passages == 0 {
		r.Passages = 1
	}
	if r.Passages < 1 {
		return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: passages = %d, want >= 1", r.Passages)
	}
	if r.MaxCrashes < 0 {
		return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: negative crash budget %d", r.MaxCrashes)
	}
	if r.ReorderBound < 0 || r.ReorderBound > machine.MaxReorderBound {
		return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: reorder bound %d out of range [0, %d]", r.ReorderBound, machine.MaxReorderBound)
	}
	if model == tradingfences.SC {
		// SC has no write buffers to bound; the explorer resolves any bound
		// to 0 (an honest no-op), so canonicalizing here keeps the bounded
		// and unbounded spellings of the same SC question on one identity.
		r.ReorderBound = 0
	}
	prio, err := ParsePriority(r.Priority)
	if err != nil {
		return tradingfences.LockSpec{}, 0, err
	}
	r.Priority = PriorityName(prio)
	switch r.Op {
	case OpCheck, OpRME:
		if r.Oracle != "" {
			return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: oracle is a synth parameter (op %q)", r.Op)
		}
	case OpSynth:
		if r.MaxCrashes != 0 {
			return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: crash budgets are a check parameter (op %q)", r.Op)
		}
		switch r.Oracle {
		case "":
			r.Oracle = "exhaustive"
		case "exhaustive", "supervised":
		default:
			return tradingfences.LockSpec{}, 0, fmt.Errorf("serve: unknown oracle %q (want exhaustive or supervised)", r.Oracle)
		}
	}
	if r.Op != OpRME {
		r.Lock = spec.String()
	}
	r.Model = model.String()
	return spec, model, nil
}

// identity is the canonical self-delimiting encoding of the request's
// identity fields, prefixed with every version that defines when two
// explorations are interchangeable: the identity schema itself, the
// StateKey codec the visited sets are minted under, and the checkpoint
// schema results resume through. A daemon built with a different codec
// therefore computes different keys for the same request — persisted
// results and checkpoints from the old build fail this certification by
// construction and are re-run fresh, never served stale.
func (r Request) identity() string {
	return fmt.Sprintf("tfserve/%d|codec=%d|ckpt=%d|op=%s|lock=%s|n=%d|passages=%d|model=%s|crashes=%d|symmetry=%t|reorder=%d|por=%t|oracle=%s",
		IdentitySchemaVersion, machine.StateKeyCodecVersion, check.CheckpointVersion,
		r.Op, r.Lock, r.N, r.Passages, r.Model, r.MaxCrashes, r.Symmetry, r.ReorderBound, r.POR, r.Oracle)
}

// Key returns the canonical request hash: the idempotency key duplicate
// submissions collapse on, and the key of the persisted result cache.
// Call Normalize first — keys of non-normalized requests are unstable.
func (r Request) Key() string {
	sum := sha256.Sum256([]byte(r.identity()))
	return hex.EncodeToString(sum[:16])
}

// JobID derives the externally visible job ID from the identity key.
// Deriving (rather than minting fresh IDs) is what makes duplicate
// submission return the same job ID across daemon restarts.
func JobID(key string) string { return "j-" + key[:16] }

// Budget lowers the run-parameter fields to a facade budget.
func (r Request) Budget() tradingfences.Budget {
	return tradingfences.Budget{
		MaxSteps:       r.MaxSteps,
		MaxStates:      r.MaxStates,
		MaxMemEstimate: int64(r.MaxMemMB) << 20,
	}
}

// Timeout returns the per-job deadline (0 = none).
func (r Request) Timeout() time.Duration {
	return time.Duration(r.TimeoutMS) * time.Millisecond
}
