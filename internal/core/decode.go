package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"tradingfences/internal/lang"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// ErrDecodeStuck is returned when the decoder's execution never reaches the
// configuration the encoder expects — the symptom of running the encoder on
// an algorithm that is not ordering (Definition 4.1) or not correct under
// the PSO machine.
var ErrDecodeStuck = errors.New("core: decode stalled (algorithm not ordering, or incorrect under PSO?)")

// DecodeResult is the execution E(Γ) determined by an extended
// configuration, together with everything the encoder's analysis needs.
type DecodeResult struct {
	// Config is the system configuration reached at the end of E(Γ).
	Config *machine.Config
	// Steps is the executed step sequence; Hidden[i] marks step i as a
	// hidden commit (a commit by a waiting process, Section 5.1).
	Steps  []machine.StepRecord
	Hidden []bool
	// EmptyAt[p] is the step index at which process p's command stack
	// first became empty (0 if it started empty, -1 if it never emptied).
	EmptyAt []int
	// SoloChecks counts termination checks performed (for the ablation
	// benchmarks).
	SoloChecks int
}

// decoder interprets command stacks against a machine configuration,
// implementing the paper's decoding rules D1-D3 verbatim.
type decoder struct {
	cfg    *machine.Config
	stacks []*Stack
	n      int

	steps  []machine.StepRecord
	hidden []bool

	emptyAt []int

	// Solo-termination cache: soloOK[p] is valid while othersCommits(p)
	// is unchanged since the check. A process's own steps cannot
	// invalidate its cached result (its solo run is deterministic and
	// memory only changes under commits), so only commits by other
	// processes force a re-check.
	soloOK      []bool
	soloEpoch   []int64
	soloValid   []bool
	commitsBy   []int64
	commitsAll  int64
	soloChecks  int
	soloMaxStep int
	noSoloCache bool

	// cpProc, when >= 0, triggers a snapshot when that process's stack
	// first empties; cp holds the captured snapshot. The snapshot is
	// deferred to the end of the step that emptied the stack
	// (wantSnapshot), because the decoding rules may still update other
	// stacks within the same step.
	cpProc       int
	cp           *decoder
	wantSnapshot bool

	// meter charges decode steps against the run's budget and observes
	// its context. Not part of snapshots: every (re)start of a decode
	// gets a fresh meter.
	meter *run.Meter
}

// DecodeOpts tunes the decoder. The zero value is the production
// configuration.
type DecodeOpts struct {
	// DisableSoloCache forces a fresh solo-termination check at every
	// enabledness query instead of caching results between commits by
	// other processes. Exists for the ablation benchmarks quantifying the
	// cache's value.
	DisableSoloCache bool
	// CheckpointProc, when >= 0, asks the decoder to snapshot its full
	// state at the moment this process's stack first becomes empty. The
	// encoder uses the snapshot to resume the next iteration's decode
	// without replaying the shared prefix (appending a command to the
	// bottom of that process's stack leaves the decode unchanged up to
	// exactly that point). Use -1 to disable.
	CheckpointProc int
	// Ctx cancels the decode (nil = context.Background()).
	Ctx context.Context
	// Budget bounds the decode. A zero MaxSteps installs
	// DefaultDecodeSteps(n) — the decode is finite for encoder-produced
	// stacks, so the cap only guards against malformed input; tripping it
	// now surfaces as a structured *run.BudgetError instead of a bare
	// formatted string.
	Budget run.Budget
}

// DefaultDecodeSteps is the decoder's default step cap for n processes:
// generous for every encoder-produced stack sequence, finite for malformed
// input.
func DefaultDecodeSteps(n int) int64 { return int64(1000*n*n + 1_000_000) }

// Checkpoint is a resumable decoder snapshot (see DecodeOpts.CheckpointProc).
type Checkpoint struct {
	d *decoder
}

// valid reports whether a checkpoint was actually captured.
func (cp *Checkpoint) valid() bool { return cp != nil && cp.d != nil }

// snapshot deep-copies the decoder at its current point.
func (d *decoder) snapshot() *decoder {
	c := &decoder{
		cfg:         d.cfg.Clone(),
		stacks:      make([]*Stack, d.n),
		n:           d.n,
		steps:       append([]machine.StepRecord(nil), d.steps...),
		hidden:      append([]bool(nil), d.hidden...),
		emptyAt:     append([]int(nil), d.emptyAt...),
		soloOK:      append([]bool(nil), d.soloOK...),
		soloEpoch:   append([]int64(nil), d.soloEpoch...),
		soloValid:   append([]bool(nil), d.soloValid...),
		commitsBy:   append([]int64(nil), d.commitsBy...),
		commitsAll:  d.commitsAll,
		soloChecks:  0,
		soloMaxStep: d.soloMaxStep,
		noSoloCache: d.noSoloCache,
		cpProc:      -1,
	}
	for i, s := range d.stacks {
		c.stacks[i] = s.Clone()
	}
	return c
}

// Decode expands the extended configuration (cfg; stacks) into the unique
// execution E(Γ) of the paper's Section 5.1, mutating cfg in place. The
// stacks are consumed (pass clones to preserve them).
func Decode(cfg *machine.Config, stacks []*Stack) (*DecodeResult, error) {
	return DecodeWith(cfg, stacks, DecodeOpts{})
}

// DecodeWith is Decode with explicit options. It returns the decode result
// and, when opts.CheckpointProc named a process whose stack emptied during
// the decode, a resumable checkpoint usable with ResumeDecode.
func DecodeWith(cfg *machine.Config, stacks []*Stack, opts DecodeOpts) (*DecodeResult, error) {
	opts.CheckpointProc = -1
	res, _, err := DecodeCheckpointed(cfg, stacks, opts)
	return res, err
}

// DecodeCheckpointed is DecodeWith returning the captured checkpoint.
func DecodeCheckpointed(cfg *machine.Config, stacks []*Stack, opts DecodeOpts) (*DecodeResult, *Checkpoint, error) {
	n := cfg.N()
	if len(stacks) != n {
		return nil, nil, fmt.Errorf("core: %d stacks for %d processes", len(stacks), n)
	}
	d := &decoder{
		cfg:         cfg,
		stacks:      stacks,
		n:           n,
		emptyAt:     make([]int, n),
		soloOK:      make([]bool, n),
		soloEpoch:   make([]int64, n),
		soloValid:   make([]bool, n),
		commitsBy:   make([]int64, n),
		soloMaxStep: machine.DefaultSoloLimit(n),
		noSoloCache: opts.DisableSoloCache,
		cpProc:      opts.CheckpointProc,
		meter:       newDecodeMeter(opts, n),
	}
	for p := 0; p < n; p++ {
		if stacks[p].Empty() {
			d.emptyAt[p] = 0
		} else {
			d.emptyAt[p] = -1
		}
	}
	if err := d.run(); err != nil {
		return nil, nil, err
	}
	return d.result(), &Checkpoint{d: d.cp}, nil
}

func (d *decoder) result() *DecodeResult {
	return &DecodeResult{
		Config:     d.cfg,
		Steps:      d.steps,
		Hidden:     d.hidden,
		EmptyAt:    d.emptyAt,
		SoloChecks: d.soloChecks,
	}
}

// ResumeDecode continues a checkpointed decode after cmd has been appended
// to the bottom of the checkpoint process's (then-empty) stack — the
// encoder's incremental step. The checkpoint is not consumed: it is
// re-snapshotted internally so the caller may resume from it again. The
// returned checkpoint (if requested via cpProc >= 0) reflects the new
// decode.
func ResumeDecode(cp *Checkpoint, proc int, cmd *Command, cpProc int) (*DecodeResult, *Checkpoint, error) {
	return ResumeDecodeWith(cp, proc, cmd, DecodeOpts{CheckpointProc: cpProc})
}

// ResumeDecodeWith is ResumeDecode with explicit options (context and
// budget for the resumed portion of the decode).
func ResumeDecodeWith(cp *Checkpoint, proc int, cmd *Command, opts DecodeOpts) (*DecodeResult, *Checkpoint, error) {
	if !cp.valid() {
		return nil, nil, fmt.Errorf("core: invalid checkpoint")
	}
	d := cp.d.snapshot()
	if !d.stacks[proc].Empty() {
		return nil, nil, fmt.Errorf("core: checkpoint process %d has a non-empty stack", proc)
	}
	d.stacks[proc].PushTop(&Command{Kind: cmd.Kind, K: cmd.K})
	d.emptyAt[proc] = -1
	d.cpProc = opts.CheckpointProc
	d.cp = nil
	d.meter = newDecodeMeter(opts, d.n)
	if err := d.run(); err != nil {
		return nil, nil, err
	}
	return d.result(), &Checkpoint{d: d.cp}, nil
}

// newDecodeMeter builds the meter for one decode pass, installing the
// legacy default step cap when the caller set none.
func newDecodeMeter(opts DecodeOpts, n int) *run.Meter {
	b := opts.Budget
	if b.MaxSteps == 0 {
		b.MaxSteps = DefaultDecodeSteps(n)
	}
	return run.NewMeter(opts.Ctx, b)
}

func (d *decoder) run() error {
	// The decode is finite for encoder-produced stacks; the step budget
	// (DefaultDecodeSteps unless overridden) guards against malformed
	// input, and the meter's context makes every decode cancellable.
	// The up-front Check catches already-expired contexts even when the
	// decode would finish inside one periodic-check window.
	if err := d.meter.Check(); err != nil {
		return fmt.Errorf("core: decode aborted: %w", err)
	}
	for {
		if err := d.meter.AddStep(); err != nil {
			return fmt.Errorf("core: decode aborted: %w", err)
		}
		progressed, err := d.step()
		if err != nil {
			return err
		}
		if d.wantSnapshot {
			d.wantSnapshot = false
			if d.cp == nil {
				d.cp = d.snapshot()
			}
		}
		if !progressed {
			return nil // D3: all processes waiting or finished.
		}
	}
}

// step performs one decoding step (D1 or D2); it returns false when rule D3
// applies (end of execution).
func (d *decoder) step() (bool, error) {
	// Rule D1: a commit-enabled process exists.
	if p, ok, err := d.commitEnabled(); err != nil {
		return false, err
	} else if ok {
		return true, d.commitStep(p)
	}
	// Rule D2: a non-commit-enabled process exists.
	if p, ok, err := d.nonCommitEnabled(); err != nil {
		return false, err
	} else if ok {
		return true, d.programStep(p)
	}
	// Rule D3.
	return false, nil
}

// commitEnabled returns the smallest-ID process p with top(St_p) = commit,
// next_p = fence and a non-empty write buffer.
func (d *decoder) commitEnabled() (int, bool, error) {
	for p := 0; p < d.n; p++ {
		top := d.stacks[p].Top()
		if top == nil || top.Kind != CmdCommit {
			continue
		}
		if d.cfg.Halted(p) {
			continue
		}
		op, ok, err := d.cfg.NextOp(p)
		if err != nil {
			return 0, false, err
		}
		if ok && op.Kind == lang.OpFence && d.cfg.BufferLen(p) > 0 {
			return p, true, nil
		}
	}
	return 0, false, nil
}

// nonCommitEnabled returns the smallest-ID process p with top(St_p) =
// proceed whose pending operation is permitted by the decoding rules and
// that terminates when run solo from the current configuration.
func (d *decoder) nonCommitEnabled() (int, bool, error) {
	for p := 0; p < d.n; p++ {
		top := d.stacks[p].Top()
		if top == nil || top.Kind != CmdProceed {
			continue
		}
		if d.cfg.Halted(p) {
			continue
		}
		op, ok, err := d.cfg.NextOp(p)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			continue
		}
		switch op.Kind {
		case lang.OpRead, lang.OpWrite:
			// eligible, subject to solo termination below
		case lang.OpReturn:
			if op.Val != int64(d.cfg.NbFinal()) {
				continue
			}
		case lang.OpFence:
			if d.cfg.BufferLen(p) != 0 {
				continue
			}
		default:
			continue
		}
		solo, err := d.soloTerminates(p)
		if err != nil {
			return 0, false, err
		}
		if solo {
			return p, true, nil
		}
	}
	return 0, false, nil
}

// commitStep implements rule D1: process p is commit-enabled; its smallest
// buffered register R commits — by a waiting process q whose
// wait-hidden-commit write to R must be hidden first, if one exists, and by
// p itself otherwise.
func (d *decoder) commitStep(p int) error {
	regs := d.cfg.BufferRegs(p)
	r := regs[0]

	// Find the smallest-ID waiting process whose pending hidden commit
	// targets R.
	q := -1
	for i := 0; i < d.n; i++ {
		top := d.stacks[i].Top()
		if top == nil || top.Kind != CmdWaitHiddenCommit || top.K <= 0 {
			continue
		}
		if _, has := d.cfg.BufferLookup(i, r); has {
			q = i
			break
		}
	}
	pstar := p
	hidden := false
	if q >= 0 {
		pstar = q
		hidden = true
	}

	bufBefore := d.cfg.BufferLen(pstar)
	rec, took, err := d.cfg.Step(machine.PReg(pstar, r))
	if err != nil {
		return err
	}
	if !took || rec.Kind != machine.StepCommit || rec.Reg != r {
		return fmt.Errorf("core: D1 expected commit of R%d by p%d, got %v", r, pstar, rec)
	}
	d.record(rec, hidden)

	// (D1a) p completed the last write of its batch: pop commit.
	if pstar == p && bufBefore == 1 {
		d.pop(p)
	}
	// (D1b) q's hidden commit consumed one unit of wait-hidden-commit.
	if pstar == q {
		cmd := d.stacks[q].Pop()
		if cmd.K-1 > 0 {
			d.stacks[q].PushTop(&Command{Kind: CmdWaitHiddenCommit, K: cmd.K - 1})
		} else {
			d.noteEmpty(q)
		}
	}
	// (D1c) the commit accessed the segment owner's local memory.
	if owner := rec.SegOwner; owner != machine.NoOwner && owner != pstar {
		if top := d.stacks[owner].Top(); top != nil && top.Kind == CmdWaitLocalFinish {
			top.addS(pstar)
		}
	}
	return nil
}

// programStep implements rule D2: the non-commit-enabled process p performs
// its pending read, write, return or fence step.
func (d *decoder) programStep(p int) error {
	rec, took, err := d.cfg.Step(machine.PBottom(p))
	if err != nil {
		return err
	}
	if !took {
		return fmt.Errorf("core: D2 produced no step for p%d", p)
	}
	if rec.Kind == machine.StepCommit {
		return fmt.Errorf("core: D2 unexpectedly committed for p%d", p)
	}
	d.record(rec, false)

	// (D2a) pop proceed if p is now poised at a fence or return, or has
	// entered its final state.
	pop := false
	if d.cfg.Halted(p) {
		pop = true
	} else {
		op, ok, err := d.cfg.NextOp(p)
		if err != nil {
			return err
		}
		if !ok || op.Kind == lang.OpFence || op.Kind == lang.OpReturn {
			pop = true
		}
	}
	if pop {
		d.pop(p)
	}

	switch rec.Kind {
	case machine.StepReturn:
		// (D2b) processes waiting on p's termination make progress.
		for q := 0; q < d.n; q++ {
			if q == p {
				continue
			}
			top := d.stacks[q].Top()
			if top == nil {
				continue
			}
			if (top.Kind == CmdWaitReadFinish || top.Kind == CmdWaitLocalFinish) && top.inS(p) {
				cmd := d.stacks[q].Pop()
				if cmd.K-1 > 0 {
					d.stacks[q].PushTop(&Command{Kind: cmd.Kind, K: cmd.K - 1, S: cmd.S})
				} else {
					d.noteEmpty(q)
				}
			}
		}
	case machine.StepRead:
		if rec.FromMemory {
			// (D2c) p read a register some waiting process is about to
			// commit to.
			for q := 0; q < d.n; q++ {
				if q == p {
					continue
				}
				top := d.stacks[q].Top()
				if top == nil || top.Kind != CmdWaitReadFinish {
					continue
				}
				if _, has := d.cfg.BufferLookup(q, rec.Reg); has {
					top.addS(p)
				}
			}
			// (D2d) p accessed the segment owner's local memory.
			if owner := rec.SegOwner; owner != machine.NoOwner && owner != p {
				if top := d.stacks[owner].Top(); top != nil && top.Kind == CmdWaitLocalFinish {
					top.addS(p)
				}
			}
		}
	}
	return nil
}

// record appends a step to the decoded execution and maintains the commit
// epochs used by the solo-termination cache.
func (d *decoder) record(rec machine.StepRecord, hidden bool) {
	d.steps = append(d.steps, rec)
	d.hidden = append(d.hidden, hidden)
	if rec.Kind == machine.StepCommit {
		d.commitsAll++
		d.commitsBy[rec.P]++
	}
}

// pop removes the top of p's stack and records first-emptiness.
func (d *decoder) pop(p int) {
	d.stacks[p].Pop()
	d.noteEmpty(p)
}

func (d *decoder) noteEmpty(p int) {
	if d.stacks[p].Empty() && d.emptyAt[p] < 0 {
		d.emptyAt[p] = len(d.steps)
		if p == d.cpProc {
			d.wantSnapshot = true
		}
	}
}

// soloTerminates reports whether p enters a final state when running alone
// from the current configuration — the paper's p-only-schedule condition.
// Solo executions are deterministic, so the result is cached until some
// other process commits (the only events that can change what p observes).
func (d *decoder) soloTerminates(p int) (bool, error) {
	epoch := d.commitsAll - d.commitsBy[p]
	if !d.noSoloCache && d.soloValid[p] && d.soloEpoch[p] == epoch {
		return d.soloOK[p], nil
	}
	ok, err := soloTerminates(d.cfg, p, d.soloMaxStep)
	if err != nil {
		return false, err
	}
	d.soloChecks++
	d.soloOK[p] = ok
	d.soloEpoch[p] = epoch
	d.soloValid[p] = true
	return ok, nil
}

// soloTerminates runs p alone on a clone of c, detecting divergence by
// state-cycle detection: a solo execution is deterministic, so a repeated
// (process state, buffer, commit count) triple proves it never halts. The
// triple is keyed with the binary state codec — p's AppendStateKey, its
// count-prefixed buffered writes, the commit count — and compared byte
// for byte, so a cycle is never reported on a hash collision.
func soloTerminates(c *machine.Config, p int, maxSteps int) (bool, error) {
	clone := c.Clone()
	seen := make(map[string]struct{}, 64)
	commits := 0
	var key []byte
	var regs []machine.Reg
	for i := 0; i < maxSteps; i++ {
		if clone.Halted(p) {
			return true, nil
		}
		if _, _, err := clone.NextOp(p); err != nil { // settle before keying
			return false, err
		}
		key = clone.Proc(p).AppendStateKey(key[:0])
		regs = clone.AppendBufferRegs(p, regs[:0])
		key = binary.AppendUvarint(key, uint64(len(regs)))
		for _, r := range regs {
			v, _ := clone.BufferLookup(p, r)
			key = binary.AppendUvarint(key, uint64(r))
			key = binary.AppendVarint(key, v)
		}
		key = binary.AppendUvarint(key, uint64(commits))
		if _, cyc := seen[string(key)]; cyc {
			return false, nil
		}
		seen[string(key)] = struct{}{}
		rec, took, err := clone.Step(machine.PBottom(p))
		if err != nil {
			return false, err
		}
		if !took {
			return clone.Halted(p), nil
		}
		if rec.Kind == machine.StepCommit {
			commits++
		}
	}
	return false, nil
}
