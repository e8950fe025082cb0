package run

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// SharedMeter is the concurrent counterpart of Meter: many goroutines
// charge steps and states against one Budget through atomic counters. Trip
// points match Meter exactly when one goroutine charges (steps trip when
// steps > MaxSteps, states when states > MaxStates, then memory; context
// and wall are re-checked every checkEvery charges), so a single-worker
// exploration metered through a SharedMeter is bit-identical to one
// metered through a Meter, provided it charges a capped resource one unit
// per call. Units of an uncapped resource may be charged in batches: only
// the context and wall checks move. With several goroutines the charge
// order is scheduling-dependent, so which worker observes the trip — and
// the exact overshoot — is not; callers that need a deterministic trip
// point run one worker.
type SharedMeter struct {
	ctx   context.Context
	b     Budget
	start time.Time

	steps   atomic.Int64
	states  atomic.Int64
	mem     atomic.Int64
	sinceCk atomic.Int64
}

// NewSharedMeter starts a concurrent meter for one run. ctx may be nil
// (treated as context.Background()).
func NewSharedMeter(ctx context.Context, b Budget) *SharedMeter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &SharedMeter{ctx: ctx, b: b, start: time.Now()}
}

// Steps returns the steps charged so far.
func (m *SharedMeter) Steps() int64 { return m.steps.Load() }

// States returns the states charged so far.
func (m *SharedMeter) States() int64 { return m.states.Load() }

// Mem returns the estimated bytes charged so far.
func (m *SharedMeter) Mem() int64 { return m.mem.Load() }

// Preload charges usage carried over from a resumed run without tripping
// mid-call; the wall clock deliberately restarts (see Meter.Preload).
// Call before any worker starts charging.
func (m *SharedMeter) Preload(steps, states, mem int64) {
	m.steps.Add(steps)
	m.states.Add(states)
	m.mem.Add(mem)
}

// Elapsed returns the wall-clock time since the meter started.
func (m *SharedMeter) Elapsed() time.Duration { return time.Since(m.start) }

// Check verifies the context and the wall budget unconditionally.
func (m *SharedMeter) Check() error {
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("run: cancelled after %d steps, %d states: %w",
			m.steps.Load(), m.states.Load(), err)
	}
	if m.b.MaxWall > 0 {
		if used := time.Since(m.start); used > m.b.MaxWall {
			return &BudgetError{Resource: "wall", Limit: int64(m.b.MaxWall), Used: int64(used)}
		}
	}
	m.sinceCk.Store(0)
	return nil
}

// AddSteps charges n steps and periodically re-checks context and wall
// budget. It keeps the charge when it fails, so Refund gives it back.
func (m *SharedMeter) AddSteps(n int64) error {
	steps := m.steps.Add(n)
	if m.b.MaxSteps > 0 && steps > m.b.MaxSteps {
		return &BudgetError{Resource: "steps", Limit: m.b.MaxSteps, Used: steps}
	}
	if m.sinceCk.Add(n) >= checkEvery {
		return m.Check()
	}
	return nil
}

// AddStates charges n interned states of approximately memEstimate bytes
// in all and periodically re-checks context and wall budget. Like
// AddSteps, it keeps the whole charge when it fails — the states and
// their bytes — so Refund gives it back.
func (m *SharedMeter) AddStates(n, memEstimate int64) error {
	states := m.states.Add(n)
	mem := m.mem.Add(memEstimate)
	if m.b.MaxStates > 0 && states > int64(m.b.MaxStates) {
		return &BudgetError{Resource: "states", Limit: int64(m.b.MaxStates), Used: states}
	}
	if m.b.MaxMemEstimate > 0 && mem > m.b.MaxMemEstimate {
		return &BudgetError{Resource: "memory", Limit: m.b.MaxMemEstimate, Used: mem}
	}
	if m.sinceCk.Add(n) >= checkEvery {
		return m.Check()
	}
	return nil
}

// Refund gives back charges for work the caller did not keep: a step or
// state whose Add* call failed (a failed call keeps its charge), or a
// charged step the caller re-queued. Re-queued work is charged again
// when it is done, so without a refund a budget trip and its resume
// would count it twice. Refund never trips.
func (m *SharedMeter) Refund(steps, states, mem int64) {
	m.steps.Add(-steps)
	m.states.Add(-states)
	m.mem.Add(-mem)
}
