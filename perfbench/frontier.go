package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	tf "tradingfences"
	"tradingfences/internal/check"
	"tradingfences/internal/machine"
	"tradingfences/internal/synth"
	"tradingfences/internal/witness"
)

// Separation hunts: locks that violate mutual exclusion under the given
// model. Each hunt runs to a minimized, replay-certified witness.
var huntHome = []lockRef{
	{spec: tf.LockSpec{Kind: tf.PetersonTSO}, n: 2, model: tf.PSO},
	{spec: tf.LockSpec{Kind: tf.PetersonNoFence}, n: 2, model: tf.TSO},
	{spec: tf.LockSpec{Kind: tf.PetersonNoFence}, n: 2, model: tf.PSO},
	{spec: tf.LockSpec{Kind: tf.BakeryTSO}, n: 3, model: tf.PSO},
	{spec: tf.LockSpec{Kind: tf.BakeryTSO}, n: 4, model: tf.PSO},
	{spec: tf.LockSpec{Kind: tf.BakeryNoFence}, n: 3, model: tf.TSO},
	{spec: tf.LockSpec{Kind: tf.BakeryNoFence}, n: 3, model: tf.PSO},
	{spec: tf.LockSpec{Kind: tf.BakeryNoFence}, n: 4, model: tf.TSO},
	{spec: tf.LockSpec{Kind: tf.BakeryNoFence}, n: 4, model: tf.PSO},
	{rme: "rtas-unsafe", n: 2, model: tf.SC, crashes: 1},
}

// How often each hunt recurs in one pass of the frontier family: on the
// frontier workload, and in the probe on the proof workload (which runs
// fewer passes), for enough latency samples either way.
const (
	huntRepsHome  = 6
	huntRepsProbe = 20
)

// synthInst is one SynthesizeFences frontier under PSO with the
// exhaustive oracle, and its pinned minimal placements.
type synthInst struct {
	spec    tf.LockSpec
	n       int
	minimal [][]int
}

func (s synthInst) String() string { return fmt.Sprintf("%v/n%d/PSO", s.spec, s.n) }

var synthHome = []synthInst{
	{tf.LockSpec{Kind: tf.Peterson}, 2, [][]int{{0, 1}}},
	{tf.LockSpec{Kind: tf.Tournament}, 3, [][]int{{0, 1, 2}}},
	{tf.LockSpec{Kind: tf.Bakery}, 3, [][]int{{0, 1}}},
}

// The frontier probe on the proof workload keeps every hunt but only the
// two cheaper frontiers.
var synthProbe = synthHome[:2]

type frontierFamily struct {
	hunts    []lockRef
	huntReps int
	synths   []synthInst
	rng      *rand.Rand

	pending   []int // the current pass: hunt index, or -(synth index + 1)
	next      int
	passSynth time.Duration
	passes    int
	huntMS    []float64
	synthPass []float64 // seconds per pass over the frontiers

	// traced layer totals
	builds, minimized                               int64
	buildNS, exploreNS, minimizeNS, replayNS, codec int64
	huntStates                                      int64
	shrink                                          float64
	oracleCalls, oracleStates, pruned, candidates   int64
	oracleNS, synthNS                               int64
}

func newFrontierFamily(hunts []lockRef, huntReps int, synths []synthInst, rng *rand.Rand) *frontierFamily {
	return &frontierFamily{hunts: hunts, huntReps: huntReps, synths: synths, rng: rng}
}

// passUnits is the number of steps in one pass.
func (f *frontierFamily) passUnits() int { return f.huntReps*len(f.hunts) + len(f.synths) }

// prepare builds every hunted subject and enumerates every synthesized
// lock's candidate fence sites: the set-up the facade repeats inside each
// call, timed by setup_s.
func (f *frontierFamily) prepare() error {
	for _, h := range f.hunts {
		s, err := h.subject()
		if err != nil {
			return err
		}
		if _, err := s.Build(machineModel(h.model)); err != nil {
			return err
		}
	}
	for _, s := range f.synths {
		ctor, err := ctorOf(s.spec)
		if err != nil {
			return err
		}
		if _, err := synth.Enumerate(ctor, s.n); err != nil {
			return err
		}
	}
	return nil
}

// step runs the next operation of the current pass: every hunt huntReps
// times and every synthesis once, in a seeded order. It reports whether
// the step ended a pass.
func (f *frontierFamily) step(ctx context.Context, b *bench) (bool, error) {
	if f.next == len(f.pending) {
		f.pending = f.pending[:0]
		for r := 0; r < f.huntReps; r++ {
			for i := range f.hunts {
				f.pending = append(f.pending, i)
			}
		}
		for i := range f.synths {
			f.pending = append(f.pending, -(i + 1))
		}
		f.rng.Shuffle(len(f.pending), func(i, j int) { f.pending[i], f.pending[j] = f.pending[j], f.pending[i] })
		f.next, f.passSynth = 0, 0
	}
	op := f.pending[f.next]
	f.next++
	// Each operation starts from a collected heap, as proofs do, so the
	// garbage of whatever ran before it does not trigger the collector
	// inside its timing.
	runtime.GC()
	if op >= 0 {
		if err := f.hunt(ctx, b, op); err != nil {
			return false, err
		}
	} else {
		wall, err := f.synthesize(ctx, b, -op-1)
		if err != nil {
			return false, err
		}
		f.passSynth += wall
	}
	if f.next < len(f.pending) {
		return false, nil
	}
	f.passes++
	f.synthPass = append(f.synthPass, f.passSynth.Seconds())
	return true, nil
}

// hunt runs one separation hunt to a certified witness: the facade check
// (exploration, ddmin minimization, artifact), an encode/decode round trip
// and a certified replay. The traced run makes the same steps through the
// subject so each layer gets its own span.
func (f *frontierFamily) hunt(ctx context.Context, b *bench, i int) error {
	ref := f.hunts[i]
	id, end := b.tr.begin(0, "check.hunt")
	var art *tf.Witness
	var err error
	if b.tr == nil {
		var v *tf.MutexVerdict
		v, err = ref.checkFacade(ctx, tf.CheckOptions{})
		if v != nil && v.Violated {
			art = v.Artifact
		}
	} else {
		art, err = f.huntTraced(ctx, b, id, ref)
	}
	if err != nil {
		return fmt.Errorf("hunt %v: %w", ref, err)
	}
	certified := false
	if art != nil {
		_, endCodec := b.tr.begin(id, "witness.codec")
		data, err := tf.EncodeWitness(art)
		if err != nil {
			return fmt.Errorf("hunt %v: encode witness: %w", ref, err)
		}
		decoded, err := tf.DecodeWitness(data)
		if err != nil {
			return fmt.Errorf("hunt %v: decode witness: %w", ref, err)
		}
		codec := endCodec()
		_, endReplay := b.tr.begin(id, "witness.replay")
		_, rerr := tf.ReplayWitness(decoded)
		replay := endReplay()
		certified = rerr == nil
		if b.tr != nil {
			f.codec += int64(codec)
			f.replayNS += int64(replay)
		}
	}
	f.huntMS = append(f.huntMS, ms(end()))
	b.tally.op(certified, "hunt %v: no replay-certified witness", ref)
	return nil
}

// huntTraced builds the subject, explores, minimizes and packages the
// witness the way CheckMutexCtx/CheckRMECtx do, one span per step.
func (f *frontierFamily) huntTraced(ctx context.Context, b *bench, parent int, ref lockRef) (*tf.Witness, error) {
	model := machineModel(ref.model)
	_, end := b.tr.begin(parent, "check.subject_build")
	sub, err := ref.subject()
	f.buildNS += int64(end())
	f.builds++
	if err != nil {
		return nil, err
	}
	_, end = b.tr.begin(parent, "check.explore")
	res, err := sub.Exhaustive(ctx, model, check.Opts{Faults: ref.faults()})
	f.exploreNS += int64(end())
	if err != nil || !res.Violation {
		return nil, err
	}
	f.minimized++
	f.huntStates += int64(res.States)
	_, end = b.tr.begin(parent, "check.minimize")
	sched, err := sub.MinimizeWitness(ctx, model, res.Witness, ref.faults())
	f.minimizeNS += int64(end())
	if err != nil {
		return nil, err
	}
	f.shrink += ratio(float64(len(res.Witness)), float64(len(sched)))
	_, end = b.tr.begin(parent, "witness.package")
	defer end()
	return packageWitness(sub, ref, sched)
}

// packageWitness assembles the replayable artifact for a violating
// schedule, as the facade does: fingerprints of the fresh configuration
// and of the replayed trace, and the processes in the critical section.
func packageWitness(sub *check.Subject, ref lockRef, sched machine.Schedule) (*tf.Witness, error) {
	model := machineModel(ref.model)
	fresh, err := sub.Build(model)
	if err != nil {
		return nil, err
	}
	tr, c, err := sub.Replay(model, sched, ref.faults())
	if err != nil {
		return nil, err
	}
	var inCS []int
	for p := 0; p < c.N(); p++ {
		in, err := sub.InCS(c, p)
		if err != nil {
			return nil, err
		}
		if in {
			inCS = append(inCS, p)
		}
	}
	name := ref.spec.String()
	if ref.rme != "" {
		name = sub.Name
	}
	w := &tf.Witness{
		Version:  witness.Version,
		Kind:     witness.KindMutex,
		Lock:     name,
		N:        ref.n,
		Passages: 1,
		Model:    ref.model.String(),
		Schedule: sched.String(),
		Faults:   ref.faults(),
		ConfigFP: fresh.IdentityFingerprint(),
		TraceFP:  tr.Fingerprint(),
		InCS:     inCS,
	}
	if sub.Passages != nil {
		st := c.PassageStats()
		w.PassageCC, w.PassageDSM = st.MaxCC, st.MaxDSM
	}
	return w, nil
}

// synthesize computes one frontier and checks its minimal placements.
// Untraced runs call the facade's SynthesizeFences; traced runs call
// synth.Synthesize with the same exhaustive oracle wrapped in a timer.
func (f *frontierFamily) synthesize(ctx context.Context, b *bench, i int) (time.Duration, error) {
	s := f.synths[i]
	id, end := b.tr.begin(0, "synth.frontier")
	var minimal [][]int
	complete := false
	if b.tr == nil {
		res, err := tf.SynthesizeFences(ctx, s.spec, s.n, tf.PSO, tf.SynthOptions{Oracle: tf.OracleExhaustive})
		if err != nil {
			return 0, fmt.Errorf("synth %v: %w", s, err)
		}
		complete = res.Complete
		for _, m := range res.Minimal {
			minimal = append(minimal, m.Sites)
		}
	} else {
		ctor, err := ctorOf(s.spec)
		if err != nil {
			return 0, err
		}
		exhaustive := synth.ExhaustiveOracle(check.Opts{})
		var oracleNS int64
		timed := func(ctx context.Context, sub *check.Subject, m machine.Model) (synth.Verdict, error) {
			_, end := b.tr.begin(id, "synth.oracle")
			v, err := exhaustive(ctx, sub, m)
			oracleNS += int64(end())
			return v, err
		}
		res, err := synth.Synthesize(ctx, "synth:"+s.spec.String(), ctor, s.n, machine.PSO, synth.Options{Oracle: timed})
		if err != nil {
			return 0, fmt.Errorf("synth %v: %w", s, err)
		}
		complete = res.Complete
		for _, m := range res.Minimal {
			minimal = append(minimal, m.Placement.Sites())
		}
		f.oracleCalls += int64(res.OracleCalls)
		f.oracleStates += int64(res.OracleStates)
		f.pruned += int64(len(res.Pruned) + res.Dominated)
		f.candidates += int64(res.Candidates)
		f.oracleNS += oracleNS
	}
	wall := end()
	f.synthNS += int64(wall)
	b.tally.op(complete && reflect.DeepEqual(minimal, s.minimal),
		"synth %v: complete=%t minimal %v, want %v", s, complete, minimal, s.minimal)
	return wall, nil
}

func (f *frontierFamily) report(m metrics) {
	m["synth_s"] = median(f.synthPass)
	m["hunt_p50_ms"] = quantile(f.huntMS, 0.50)
	m["hunt_p95_ms"] = quantile(f.huntMS, 0.95)
}

func (f *frontierFamily) traceReport(m metrics) {
	hunts := float64(f.minimized)
	passes := float64(f.passes)
	m["check.subject_build.us"] = ratio(float64(f.buildNS), float64(f.builds)) / 1e3
	m["check.hunt.explore_ms"] = ratio(float64(f.exploreNS), hunts) / 1e6
	m["check.hunt.states"] = ratio(float64(f.huntStates), hunts)
	m["check.minimize.ms"] = ratio(float64(f.minimizeNS), hunts) / 1e6
	m["check.minimize.shrink"] = ratio(f.shrink, hunts)
	m["witness.replay.ms"] = ratio(float64(f.replayNS), hunts) / 1e6
	m["witness.codec.us"] = ratio(float64(f.codec), hunts) / 1e3
	m["synth.oracle.calls"] = ratio(float64(f.oracleCalls), passes)
	m["synth.oracle.states"] = ratio(float64(f.oracleStates), passes)
	m["synth.oracle.ms"] = ratio(float64(f.oracleNS), passes) / 1e6
	m["synth.oracle.share"] = ratio(float64(f.oracleNS), float64(f.synthNS))
	m["synth.prune_ratio"] = ratio(float64(f.pruned), float64(f.candidates))
	m["synth.self.ms"] = ratio(float64(f.synthNS-f.oracleNS), passes) / 1e6
}
