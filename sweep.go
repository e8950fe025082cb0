package tradingfences

import (
	"context"
	"fmt"
	"math"

	"tradingfences/internal/core"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/objects"
)

// SweepPoint is one measured point of the fence/RMR tradeoff: the
// worst-case per-passage cost of a lock at a given n.
type SweepPoint struct {
	Lock LockSpec
	N    int
	// Fences and RMRs are the worst per-process counts of one passage
	// (sequential, uncontended — the paper's per-passage measure).
	Fences int64
	RMRs   int64
	// LHS is f·(log2(r/f)+1), the left side of Equation 1.
	LHS float64
	// Normalized is LHS / log2(n) — per the tradeoff it is bounded below
	// by a constant for every lock, and bounded above for the GT family
	// (tightness).
	Normalized float64
	// RMRBound is f·n^(1/f), the Equation 2 budget for GT_f (0 for
	// non-GT locks).
	RMRBound float64
}

// RMRModel selects the remote-step classification for measurements. The
// paper proves the lower bound in CombinedModel (cache + segment, the
// weakest counting, so the bound transfers to the other two) and discusses
// DSMModel and CCModel as the two classical settings.
type RMRModel int

// RMR accounting models.
const (
	// CombinedModel counts a step remote only if it is both out-of-segment
	// and a cache miss (the paper's Section 2 model; the default).
	CombinedModel RMRModel = iota + 1
	// DSMModel counts every out-of-segment access as remote.
	DSMModel
	// CCModel counts every cache miss as remote.
	CCModel
)

func (m RMRModel) String() string { return m.internal().String() }

func (m RMRModel) internal() machine.Accounting {
	switch m {
	case DSMModel:
		return machine.DSM
	case CCModel:
		return machine.CC
	default:
		return machine.Combined
	}
}

// RMRModels lists the three accounting modes, weakest (the paper's) first.
func RMRModels() []RMRModel { return []RMRModel{CombinedModel, DSMModel, CCModel} }

// MeasureLock measures one uncontended passage of the lock (via the Count
// object) under PSO with the paper's combined RMR accounting and returns
// the tradeoff point.
func MeasureLock(spec LockSpec, n int) (SweepPoint, error) {
	return MeasureLockIn(spec, n, CombinedModel)
}

// MeasureLockIn is MeasureLock under an explicit RMR accounting model.
func MeasureLockIn(spec LockSpec, n int, acct RMRModel) (SweepPoint, error) {
	sys, err := NewSystem(spec, Count, n)
	if err != nil {
		return SweepPoint{}, err
	}
	rep, err := sys.runSequentialAcct(PSO, nil, acct)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("measure %v n=%d: %w", spec, n, err)
	}
	// Subtract the Count wrapper's own constant cost (its CS fence and
	// the final pre-return fence) so the point reflects the lock alone.
	const wrapperFences = 2
	f := rep.MaxFences - wrapperFences
	if f < 1 {
		f = 1
	}
	p := SweepPoint{
		Lock:   spec,
		N:      n,
		Fences: f,
		RMRs:   rep.MaxRMRs,
		LHS:    core.TradeoffLHS(float64(f), float64(rep.MaxRMRs)),
	}
	if n > 1 {
		p.Normalized = p.LHS / math.Log2(float64(n))
	}
	if spec.Kind == GT {
		b := locks.Branching(n, spec.F)
		p.RMRBound = float64(spec.F) * float64(b)
	}
	return p, nil
}

// AmortizedPoint reports repeated-passage costs of a lock: the first
// passage (cold caches) vs the average over all passages (warm caches).
type AmortizedPoint struct {
	Lock     LockSpec
	N        int
	Passages int
	// FirstRMRs approximates the cold-cache passage cost (the
	// single-passage measurement).
	FirstRMRs int64
	// AmortizedRMRs is the per-passage average over Passages sequential
	// passages by the same process.
	AmortizedRMRs float64
	// AmortizedFences is the per-passage fence average (fences are
	// cache-independent, so this stays equal to the single-passage
	// count).
	AmortizedFences float64
}

// MeasureLockRepeated measures `passages` back-to-back uncontended
// passages per process under PSO with the given RMR accounting and
// reports the amortized per-passage cost. Under cache-coherent (and
// combined) accounting, scan-heavy locks get dramatically cheaper after
// the first passage because unchanged registers stay cached.
func MeasureLockRepeated(spec LockSpec, n, passages int, acct RMRModel) (AmortizedPoint, error) {
	ctor, err := spec.constructor()
	if err != nil {
		return AmortizedPoint{}, err
	}
	lay := machine.NewLayout()
	lk, err := ctor(lay, "lk", n)
	if err != nil {
		return AmortizedPoint{}, err
	}
	obj, err := objects.NewRepeatedPassage("rep", lk, passages)
	if err != nil {
		return AmortizedPoint{}, err
	}
	c, err := machine.NewConfig(machine.PSO, lay, obj.Programs())
	if err != nil {
		return AmortizedPoint{}, err
	}
	c.SetAccounting(acct.internal())
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if err := machine.RunSequential(c, order, passages*machine.DefaultSoloLimit(n)); err != nil {
		return AmortizedPoint{}, fmt.Errorf("measure repeated %v n=%d: %w", spec, n, err)
	}
	single, err := MeasureLockIn(spec, n, acct)
	if err != nil {
		return AmortizedPoint{}, err
	}
	st := c.Stats()
	return AmortizedPoint{
		Lock:            spec,
		N:               n,
		Passages:        passages,
		FirstRMRs:       single.RMRs,
		AmortizedRMRs:   float64(st.MaxRMRs()) / float64(passages),
		AmortizedFences: float64(st.MaxFences()-1) / float64(passages), // minus the trailing fence
	}, nil
}

// ContentionPoint compares a lock's per-passage RMR cost without and with
// contention. Local-spin algorithms (the reason RMR complexity is the
// standard measure — see the paper's introduction) keep the contended
// column close to the uncontended one: busy-waiting hits the cache, not
// the interconnect.
type ContentionPoint struct {
	Lock LockSpec
	N    int
	// SoloRMRs is the worst per-process RMR count when passages are
	// sequential (no overlap).
	SoloRMRs int64
	// ContendedRMRs is the worst per-process RMR count when all n
	// processes compete simultaneously under a fair round-robin schedule.
	ContendedRMRs int64
	// ContendedFences is the worst per-process fence count under
	// contention (unchanged from solo: fences are schedule-independent).
	ContendedFences int64
}

// MeasureLockContended runs the Count object over the lock under full
// round-robin contention (PSO, combined accounting) and reports worst-case
// per-process RMRs, next to the uncontended baseline.
func MeasureLockContended(spec LockSpec, n int) (ContentionPoint, error) {
	solo, err := MeasureLock(spec, n)
	if err != nil {
		return ContentionPoint{}, err
	}
	sys, err := NewSystem(spec, Count, n)
	if err != nil {
		return ContentionPoint{}, err
	}
	rep, err := sys.RunConcurrent(PSO)
	if err != nil {
		return ContentionPoint{}, fmt.Errorf("contended %v n=%d: %w", spec, n, err)
	}
	return ContentionPoint{
		Lock:            spec,
		N:               n,
		SoloRMRs:        solo.RMRs,
		ContendedRMRs:   rep.MaxRMRs,
		ContendedFences: rep.MaxFences,
	}, nil
}

// TradeoffSweepCtx measures GT_f for every height f = 1..⌈log2 n⌉ at the
// given n — the empirical reproduction of Equation 2 (and, at its
// endpoints, of the Section 3 Bakery and tournament-tree claims). It is
// cancellable between measurement points; a cancelled context returns an
// error matching context.Canceled.
func TradeoffSweepCtx(ctx context.Context, n int) ([]SweepPoint, error) {
	maxF := 1
	for p := 1; p < n; p *= 2 {
		maxF++
	}
	pts := make([]SweepPoint, 0, maxF)
	for f := 1; f < maxF; f++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tradeoff sweep cancelled at f=%d: %w", f, err)
		}
		pt, err := MeasureLock(LockSpec{Kind: GT, F: f}, n)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// GTShape describes the static structure of a GT_f instance (the paper's
// Figure 1): a tree of height F with branching factor Branching and a
// Bakery[Branching] lock at each node.
type GTShape = locks.GTShape

// ShapeGT returns the tree shape GT_f builds for n processes.
func ShapeGT(n, f int) GTShape { return locks.ShapeGT(n, f) }
