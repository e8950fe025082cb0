package tradingfences

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tradingfences/internal/check"
	"tradingfences/internal/core"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/objects"
	"tradingfences/internal/run"
	"tradingfences/internal/supervise"
	"tradingfences/internal/synth"
)

// SynthOracleKind selects the safety oracle of a synthesis run.
type SynthOracleKind int

// Synthesis oracles.
const (
	// OracleSupervised (the default) decides placements with the
	// supervised parallel checker: retry ladder on degradable budget
	// trips, randomized fallback for refutation hunting. Placements whose
	// proof degrades are reported as unknown, never as proved.
	OracleSupervised SynthOracleKind = iota
	// OracleExhaustive decides placements with the sequential exhaustive
	// checker under the per-call budget — deterministic and exact, the
	// right choice at n = 2..3.
	OracleExhaustive
)

// SynthOptions configures SynthesizeFences.
type SynthOptions struct {
	// Passages per process in the checked workload (default 1).
	Passages int
	// Budget bounds each oracle call (zero = unlimited). A tripped
	// degradable budget marks the placement unknown — reported in the
	// partial-frontier verdict, never silently dropped.
	Budget Budget
	// Oracle selects the safety oracle (default OracleSupervised).
	Oracle SynthOracleKind
	// Workers sizes the supervised oracle's worker pool.
	Workers int
	// Seed drives the supervised oracle's randomized fallback.
	Seed int64
	// MaxOracleCalls bounds total oracle invocations (0 = unlimited);
	// hitting the bound leaves the remaining placements unchecked and the
	// frontier explicitly partial.
	MaxOracleCalls int
	// POR enables commit-step partial-order reduction in the safety
	// oracle (see CheckOptions.POR). Verdict-preserving, so oracle proofs
	// stay full proofs — placements admitted to the frontier under POR
	// are exactly those admitted without it, found with fewer states.
	POR bool
	// ReorderBound > 0 runs the safety oracle under reorder-bounded
	// buffer semantics (see CheckOptions.ReorderBound). The bounded graph
	// under-approximates the full semantics, so the oracle becomes
	// refute-only: every violation it finds is genuine (witnesses replay
	// under full semantics), but a violation-free completion is reported
	// undecided, never as a safe placement — with a bound set, expect a
	// partial frontier unless every surviving placement is refuted.
	ReorderBound int
	// WitnessDir, when set, receives one replayable witness artifact per
	// oracle-refuted placement (synth-<lock>-<sites>_<model>.witness.json).
	WitnessDir string
}

// SynthSite is one candidate fence site of the searched lock.
type SynthSite struct {
	ID   int    `json:"id"`
	Frag string `json:"frag"`
	Desc string `json:"desc"`
}

// SynthPoint is one minimal safe placement with its measured per-passage
// tradeoff coordinates (PSO, combined accounting, like MeasureLock).
type SynthPoint struct {
	// Sites are the fenced site IDs.
	Sites []int `json:"sites"`
	// Lock is the placement's full lock name ("synth:peterson:0-1"),
	// usable in witness artifacts and CLI flags.
	Lock string `json:"lock"`
	// Fences and RMRs are the worst per-process per-passage counts.
	Fences int64 `json:"fences"`
	RMRs   int64 `json:"rmrs"`
	// LHS is f·(log2(r/f)+1) with f clamped to >= 1, comparable to
	// SweepPoint.LHS; Normalized is LHS / log2(n).
	LHS        float64 `json:"lhs"`
	Normalized float64 `json:"normalized"`
	// States is the oracle's state count for the safety proof.
	States int `json:"states"`
	// Certain is true when minimality is certified: every strict subset
	// was explicitly refuted and the proof did not come from a degraded
	// oracle pass.
	Certain bool `json:"certain"`
}

// SynthRefutation is one placement proven unsafe, with its replayable
// witness.
type SynthRefutation struct {
	Sites []int  `json:"sites"`
	Lock  string `json:"lock"`
	// Pruned is true when the placement was refuted by a transferred
	// witness (no oracle call); Source then names the oracle-refuted
	// placement the witness came from, and ByMonotone marks the classic
	// subset-of-a-refuted-placement case.
	Pruned     bool  `json:"pruned"`
	Source     []int `json:"source,omitempty"`
	ByMonotone bool  `json:"by_monotone,omitempty"`
	// WitnessSchedule is the violating schedule in ReplaySchedule's
	// textual format; Artifact is the certified replayable artifact.
	WitnessSchedule string   `json:"witness_schedule"`
	Artifact        *Witness `json:"-"`
}

// SynthResult is the outcome of a fence-placement synthesis run.
type SynthResult struct {
	Lock     LockSpec
	N        int
	Passages int
	Model    MemoryModel
	// Sites are the candidate fence sites of the (stripped) lock.
	Sites []SynthSite
	// Candidates is the placement-lattice size, 2^len(Sites).
	Candidates int
	// Minimal are all minimal safe placements found, measured; Frontier
	// is its Pareto-optimal subset in (fences, RMRs).
	Minimal  []SynthPoint
	Frontier []SynthPoint
	// Refuted lists every placement proven unsafe (oracle refutations
	// first, then pruned ones), each with a replayable witness.
	Refuted []SynthRefutation
	// Dominated counts safe-but-non-minimal placements skipped; Unknown
	// counts placements the per-call budget left undecided; Unchecked
	// counts placements never reached (global bound or cancellation).
	Dominated int
	Unknown   int
	Unchecked int
	// OracleCalls and OracleStates total the oracle effort.
	OracleCalls  int
	OracleStates int
	// Complete is true when every placement was classified; Verdict
	// states it in words, e.g. "frontier complete (1 minimal placement)"
	// or "frontier partial: 3 placements unchecked".
	Complete bool
	Verdict  string
}

// SynthLockName is the lock name of one placement over a base lock spec,
// as recorded in witness artifacts: "synth:<base>:<sites>" with sites
// dash-joined ("synth:peterson:0-1") or "none".
func SynthLockName(spec LockSpec, sites []int) (string, error) {
	p, err := synth.FromSites(sites)
	if err != nil {
		return "", err
	}
	return synth.PlacementName("synth:"+spec.String(), p), nil
}

// oracleFor lowers the facade oracle selection to the engine's.
func (o SynthOptions) oracleFor() synth.Oracle {
	red := check.Reduction{ReorderBound: o.ReorderBound, POR: o.POR}
	if o.Oracle == OracleExhaustive {
		return synth.ExhaustiveOracle(check.Opts{Budget: o.Budget, Reduction: red})
	}
	runs, maxSteps := CheckOptions{}.fallback()
	return synth.SupervisedOracle(supervise.Options{
		Workers:          o.Workers,
		Budget:           o.Budget,
		Reduction:        red,
		Seed:             o.Seed,
		FallbackRuns:     runs,
		FallbackMaxSteps: maxSteps,
	})
}

// SynthesizeFences strips the lock's fences and searches its placement
// lattice for every minimal safe fence placement under the given memory
// model, then measures each one (PSO, combined RMR accounting, like
// MeasureLock) and reports the (fences, RMRs) Pareto frontier.
//
// Refuted placements — by the oracle or by counterexample transfer —
// each carry a replayable witness artifact. Budget and call-bound trips
// surface as an explicitly partial frontier in Verdict ("frontier
// partial: k placements unchecked"), never as silent truncation; a
// cancelled context returns the partial result with the context error.
func SynthesizeFences(ctx context.Context, spec LockSpec, n int, model MemoryModel, opts SynthOptions) (res *SynthResult, err error) {
	defer run.Recover("synthesize fences", &err)
	ctor, err := spec.constructor()
	if err != nil {
		return nil, err
	}
	if err := ensureDir(opts.WitnessDir); err != nil {
		return nil, err
	}
	base := "synth:" + spec.String()
	eng, serr := synth.Synthesize(ctx, base, ctor, n, model.internal(), synth.Options{
		Passages:       opts.Passages,
		Oracle:         opts.oracleFor(),
		MaxOracleCalls: opts.MaxOracleCalls,
	})
	if eng == nil {
		return nil, serr
	}
	res = &SynthResult{
		Lock:         spec,
		N:            eng.N,
		Passages:     eng.Passages,
		Model:        model,
		Candidates:   eng.Candidates,
		Dominated:    eng.Dominated,
		Unknown:      len(eng.Unknown),
		Unchecked:    eng.Unchecked,
		OracleCalls:  eng.OracleCalls,
		OracleStates: eng.OracleStates,
		Complete:     eng.Complete,
	}
	for _, s := range eng.Sites {
		res.Sites = append(res.Sites, SynthSite{ID: s.ID, Frag: s.Frag, Desc: s.Desc})
	}
	for _, m := range eng.Minimal {
		pt, merr := measurePlacement(spec, ctor, n, m.Placement)
		if merr != nil {
			return res, merr
		}
		pt.States = m.States
		pt.Certain = m.Certain
		res.Minimal = append(res.Minimal, pt)
	}
	res.Frontier = paretoFrontier(res.Minimal)
	if aerr := attachSynthRefutations(spec, ctor, eng, res, opts); aerr != nil {
		return res, aerr
	}
	res.Verdict = synthVerdict(res)
	if serr != nil {
		return res, serr
	}
	return res, nil
}

// measurePlacement measures one placement's uncontended passage via the
// Count object under PSO with combined accounting, mirroring MeasureLock
// (including the wrapper-fence subtraction and the f >= 1 clamp in the
// LHS).
func measurePlacement(spec LockSpec, ctor locks.Constructor, n int, p synth.Placement) (SynthPoint, error) {
	lay := machine.NewLayout()
	lk, err := synth.Constructor(ctor, p)(lay, "lk", n)
	if err != nil {
		return SynthPoint{}, err
	}
	obj, err := objects.NewCount(lay, "obj", lk)
	if err != nil {
		return SynthPoint{}, err
	}
	c, err := machine.NewConfig(machine.PSO, lay, obj.Programs())
	if err != nil {
		return SynthPoint{}, err
	}
	c.SetAccounting(machine.Combined)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if err := machine.RunSequential(c, order, machine.DefaultSoloLimit(n)); err != nil {
		return SynthPoint{}, fmt.Errorf("measure placement %s: %w", p, err)
	}
	st := c.Stats()
	const wrapperFences = 2 // the Count wrapper's CS fence and pre-return fence
	fences := st.MaxFences() - wrapperFences
	if fences < 0 {
		fences = 0
	}
	f := fences
	if f < 1 {
		f = 1
	}
	pt := SynthPoint{
		Sites:  p.Sites(),
		Lock:   synth.PlacementName("synth:"+spec.String(), p),
		Fences: fences,
		RMRs:   st.MaxRMRs(),
		LHS:    core.TradeoffLHS(float64(f), float64(st.MaxRMRs())),
	}
	if pt.Sites == nil {
		pt.Sites = []int{}
	}
	if n > 1 {
		pt.Normalized = pt.LHS / math.Log2(float64(n))
	}
	return pt, nil
}

// paretoFrontier filters points to the Pareto-optimal set in (fences,
// RMRs): a point survives unless another point is no worse on both axes
// and strictly better on one. Ties keep the first point in (fences, RMRs,
// lock-name) order.
func paretoFrontier(pts []SynthPoint) []SynthPoint {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]SynthPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Fences != sorted[j].Fences {
			return sorted[i].Fences < sorted[j].Fences
		}
		if sorted[i].RMRs != sorted[j].RMRs {
			return sorted[i].RMRs < sorted[j].RMRs
		}
		return sorted[i].Lock < sorted[j].Lock
	})
	var front []SynthPoint
	bestRMRs := int64(math.MaxInt64)
	for _, pt := range sorted {
		if pt.RMRs < bestRMRs {
			front = append(front, pt)
			bestRMRs = pt.RMRs
		}
	}
	return front
}

// attachSynthRefutations packages every refuted placement's witness as a
// certified replayable artifact, and (for oracle refutations, when
// opts.WitnessDir is set) writes the artifacts to disk.
func attachSynthRefutations(spec LockSpec, ctor locks.Constructor, eng *synth.Result, res *SynthResult, opts SynthOptions) error {
	buildOne := func(p synth.Placement, sched machine.Schedule) (SynthRefutation, error) {
		name := synth.PlacementName("synth:"+spec.String(), p)
		subject, err := check.NewMutexSubject(name, synth.Constructor(ctor, p), res.N, res.Passages)
		if err != nil {
			return SynthRefutation{}, err
		}
		w, _, err := mutexArtifact(subject, name, res.N, res.Passages, res.Model, sched, nil)
		if err != nil {
			return SynthRefutation{}, fmt.Errorf("refutation artifact for %s: %w", p, err)
		}
		sites := p.Sites()
		if sites == nil {
			sites = []int{}
		}
		return SynthRefutation{
			Sites:           sites,
			Lock:            name,
			WitnessSchedule: sched.String(),
			Artifact:        w,
		}, nil
	}
	for _, ref := range eng.Refuted {
		r, err := buildOne(ref.Placement, ref.Witness)
		if err != nil {
			return err
		}
		if opts.WitnessDir != "" {
			file := strings.ReplaceAll(r.Lock, ":", "-") + "_" + strings.ToLower(res.Model.String()) + ".witness.json"
			if err := WriteWitnessFile(filepath.Join(opts.WitnessDir, file), r.Artifact); err != nil {
				return err
			}
		}
		res.Refuted = append(res.Refuted, r)
	}
	for _, pr := range eng.Pruned {
		r, err := buildOne(pr.Placement, pr.Witness)
		if err != nil {
			return err
		}
		r.Pruned = true
		r.Source = pr.Source.Sites()
		if r.Source == nil {
			r.Source = []int{}
		}
		r.ByMonotone = pr.ByMonotone
		res.Refuted = append(res.Refuted, r)
	}
	return nil
}

// synthVerdict states the run's completeness in words.
func synthVerdict(res *SynthResult) string {
	if res.Complete {
		plural := "s"
		if len(res.Minimal) == 1 {
			plural = ""
		}
		return fmt.Sprintf("frontier complete (%d minimal placement%s)", len(res.Minimal), plural)
	}
	var parts []string
	if res.Unchecked > 0 {
		parts = append(parts, fmt.Sprintf("%d placements unchecked", res.Unchecked))
	}
	if res.Unknown > 0 {
		parts = append(parts, fmt.Sprintf("%d placements undecided within budget", res.Unknown))
	}
	if len(parts) == 0 {
		parts = append(parts, "incomplete")
	}
	return "frontier partial: " + strings.Join(parts, ", ")
}

// ensureDir makes opts.WitnessDir usable before a synthesis run writes to
// it.
func ensureDir(dir string) error {
	if dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}
