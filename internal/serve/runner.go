package serve

import (
	"context"

	"tradingfences"
	"tradingfences/internal/supervise"
)

// CheckOutcome is the serialized verdict of a check job. It carries
// exactly the deterministic fields of a MutexVerdict — no wall times —
// so an interrupted-and-resumed job's outcome can be compared
// bit-for-bit against an uninterrupted run's.
type CheckOutcome struct {
	Violated         bool   `json:"violated"`
	Proved           bool   `json:"proved"`
	Mode             string `json:"mode"`
	States           int    `json:"states"`
	ExhaustiveStates int    `json:"exhaustive_states"`
	RandomSteps      int    `json:"random_steps,omitempty"`
	WitnessSchedule  string `json:"witness_schedule,omitempty"`
	// Reduction accounting (mirrors tradingfences.Coverage): the resolved
	// reorder bound the exploration ran under (0 = full semantics), whether
	// a bounded exploration completed violation-free (a bounded
	// certificate — Proved stays false), and whether partial-order
	// reduction was applied.
	ReorderBound    int  `json:"reorder_bound,omitempty"`
	BoundedComplete bool `json:"bounded_complete,omitempty"`
	POR             bool `json:"por,omitempty"`
	// Passage accounting (rme jobs only): passages closed during the
	// exploration and the worst per-passage RMR count under the CC and DSM
	// rules. Watermarks over the explored spanning tree — certified lower
	// bounds on the worst case.
	PassageCount  int64 `json:"passage_count,omitempty"`
	PassageMaxCC  int64 `json:"passage_max_cc,omitempty"`
	PassageMaxDSM int64 `json:"passage_max_dsm,omitempty"`
}

// SynthOutcome is the serialized frontier of a synth job.
type SynthOutcome struct {
	Verdict      string       `json:"verdict"`
	Complete     bool         `json:"complete"`
	Candidates   int          `json:"candidates"`
	OracleCalls  int          `json:"oracle_calls"`
	OracleStates int          `json:"oracle_states"`
	Unknown      int          `json:"unknown,omitempty"`
	Unchecked    int          `json:"unchecked,omitempty"`
	Minimal      []SynthPoint `json:"minimal"`
	Frontier     []SynthPoint `json:"frontier"`
	Refuted      int          `json:"refuted"`
}

// SynthPoint is one measured placement of a SynthOutcome.
type SynthPoint struct {
	Sites  []int  `json:"sites"`
	Lock   string `json:"lock"`
	Fences int64  `json:"fences"`
	RMRs   int64  `json:"rmrs"`
}

// Result is a job's terminal outcome as journaled and served.
type Result struct {
	Op    string        `json:"op"`
	Check *CheckOutcome `json:"check,omitempty"`
	Synth *SynthOutcome `json:"synth,omitempty"`
	// States is the exploration effort (visited states for checks, total
	// oracle states for synthesis) — the denominator of the daemon's
	// throughput metrics and the witness that a cache hit did no work.
	States int `json:"states"`
	// Authoritative marks results that answer the identity for good: a
	// proof or violation for checks, a complete frontier for synthesis.
	// Non-authoritative results (degraded verdicts, partial frontiers)
	// are returned to their submitter and journaled, but a later
	// identical submission re-runs fresh instead of being served one.
	Authoritative bool `json:"authoritative"`
}

// Runner executes one job. Implementations must honor ctx and must route
// supervised attempt reports through onAttempt when the operation
// supports it.
type Runner interface {
	Run(ctx context.Context, job View, onAttempt func(supervise.Attempt)) (*Result, error)
}

// FacadeRunner runs jobs through the root facade: checks through the
// supervisor (with the job's checkpoint path, resuming certified
// snapshots for replayed jobs), synthesis through SynthesizeFences.
type FacadeRunner struct{}

// Run dispatches on the job's operation.
func (FacadeRunner) Run(ctx context.Context, job View, onAttempt func(supervise.Attempt)) (*Result, error) {
	req := job.Request
	spec, model, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case OpSynth:
		return runSynth(ctx, spec, model, req)
	case OpRME:
		return runRME(ctx, model, req)
	}
	return runCheck(ctx, spec, model, req, job, onAttempt)
}

// runRME checks recoverable mutual exclusion through the facade. Unlike
// plain checks, rme jobs run unsupervised and without a checkpoint: the
// passage watermarks are path-dependent and deliberately excluded from the
// checkpoint schema, so a resumed exploration could not report them
// honestly. A job replayed after a daemon crash simply re-runs from
// scratch — the verdict is deterministic, so idempotency is unaffected.
func runRME(ctx context.Context, model tradingfences.MemoryModel, req Request) (*Result, error) {
	opts := tradingfences.CheckOptions{
		Budget:       req.Budget(),
		Seed:         req.Seed,
		ReorderBound: req.ReorderBound,
		POR:          req.POR,
		Workers:      req.Workers,
	}
	if req.MaxCrashes > 0 {
		opts.Faults = &tradingfences.FaultPlan{MaxCrashes: req.MaxCrashes}
	}
	v, err := tradingfences.CheckRMECtx(ctx, req.Lock, req.N, req.Passages, model, opts)
	if err != nil && !tradingfences.IsLimit(err) {
		return nil, err
	}
	if v == nil {
		return nil, err
	}
	out := checkOutcomeOf(v)
	if ps := v.Passages; ps != nil {
		out.PassageCount, out.PassageMaxCC, out.PassageMaxDSM = ps.Count, ps.MaxCC, ps.MaxDSM
	}
	return &Result{
		Op:            OpRME,
		Check:         out,
		States:        v.States,
		Authoritative: authoritative(v),
	}, err
}

// checkOutcomeOf lowers the deterministic fields of a verdict.
func checkOutcomeOf(v *tradingfences.MutexVerdict) *CheckOutcome {
	return &CheckOutcome{
		Violated:         v.Violated,
		Proved:           v.Proved,
		Mode:             v.Mode,
		States:           v.States,
		ExhaustiveStates: v.Coverage.ExhaustiveStates,
		RandomSteps:      v.Coverage.RandomSteps,
		WitnessSchedule:  v.WitnessSchedule,
		ReorderBound:     v.Coverage.ReorderBound,
		BoundedComplete:  v.Coverage.BoundedComplete,
		POR:              v.Coverage.POR,
	}
}

// authoritative reports whether the verdict answers its identity for good.
// The reorder bound is an identity field, so a bounded-complete run — the
// bounded graph fully explored, violation-free — is the final answer to
// the bounded question even though it proves nothing about the full
// semantics (Proved stays false and the outcome says so). An unreduced
// submission computes a different key and never sees it.
func authoritative(v *tradingfences.MutexVerdict) bool {
	return v.Proved || v.Violated || v.Coverage.BoundedComplete
}

func runCheck(ctx context.Context, spec tradingfences.LockSpec, model tradingfences.MemoryModel,
	req Request, job View, onAttempt func(supervise.Attempt)) (*Result, error) {
	opts := tradingfences.SuperviseOptions{
		CheckOptions: tradingfences.CheckOptions{
			Budget:       req.Budget(),
			Seed:         req.Seed,
			ReorderBound: req.ReorderBound,
			POR:          req.POR,
			Workers:      req.Workers,
			// Every job checkpoints: crash-safety of the daemon is the
			// point, not an option.
			CheckpointPath: checkpointPathOf(job),
		},
		// A replayed job picks up the certified snapshot its previous
		// incarnation left; the supervisor re-certifies it and falls back
		// to a fresh start on any drift.
		Resume:    job.Resumed,
		OnAttempt: onAttempt,
	}
	if req.MaxCrashes > 0 {
		opts.Faults = &tradingfences.FaultPlan{MaxCrashes: req.MaxCrashes}
	}
	v, _, err := tradingfences.CheckMutexSupervisedCtx(ctx, spec, req.N, req.Passages, model, opts)
	if err != nil && !tradingfences.IsLimit(err) {
		return nil, err
	}
	if v == nil {
		return nil, err
	}
	return &Result{
		Op:     OpCheck,
		Check:  checkOutcomeOf(v),
		States: v.States,
		// A degraded pass that found a violation is still a real
		// refutation (its witness replays); a degraded pass that found
		// nothing proves nothing and must not be served to later traffic.
		Authoritative: authoritative(v),
	}, err
}

func runSynth(ctx context.Context, spec tradingfences.LockSpec, model tradingfences.MemoryModel,
	req Request) (*Result, error) {
	opts := tradingfences.SynthOptions{
		Passages:       req.Passages,
		Budget:         req.Budget(),
		Workers:        req.Workers,
		Seed:           req.Seed,
		MaxOracleCalls: req.MaxOracleCalls,
		ReorderBound:   req.ReorderBound,
		POR:            req.POR,
	}
	if req.Oracle == "supervised" {
		opts.Oracle = tradingfences.OracleSupervised
	} else {
		opts.Oracle = tradingfences.OracleExhaustive
	}
	res, err := tradingfences.SynthesizeFences(ctx, spec, req.N, model, opts)
	if err != nil && !tradingfences.IsLimit(err) {
		return nil, err
	}
	if res == nil {
		return nil, err
	}
	out := &SynthOutcome{
		Verdict:      res.Verdict,
		Complete:     res.Complete,
		Candidates:   res.Candidates,
		OracleCalls:  res.OracleCalls,
		OracleStates: res.OracleStates,
		Unknown:      res.Unknown,
		Unchecked:    res.Unchecked,
		Refuted:      len(res.Refuted),
		Minimal:      synthPoints(res.Minimal),
		Frontier:     synthPoints(res.Frontier),
	}
	return &Result{
		Op:            OpSynth,
		Synth:         out,
		States:        res.OracleStates,
		Authoritative: res.Complete,
	}, err
}

func synthPoints(pts []tradingfences.SynthPoint) []SynthPoint {
	out := make([]SynthPoint, 0, len(pts))
	for _, p := range pts {
		out = append(out, SynthPoint{Sites: p.Sites, Lock: p.Lock, Fences: p.Fences, RMRs: p.RMRs})
	}
	return out
}

// checkpointPathOf recovers the job's checkpoint path from its view (the
// store does not expose the raw Job to runners).
func checkpointPathOf(job View) string { return job.checkpointPath }
