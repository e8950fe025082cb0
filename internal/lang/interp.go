package lang

import (
	"errors"
	"fmt"
)

// OpKind enumerates the shared-memory operations a process can be poised to
// execute — the paper's read(), write(), fence() and return() operations.
type OpKind int

// Shared-memory operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpFence
	OpReturn
	OpTAS
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFence:
		return "fence"
	case OpReturn:
		return "return"
	case OpTAS:
		return "tas"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is the shared-memory operation a process is poised to execute,
// with its arguments already evaluated (expressions are pure, so early
// evaluation is sound).
type Op struct {
	Kind OpKind
	// Reg is the register operand for OpRead and OpWrite.
	Reg Value
	// Val is the value operand for OpWrite and OpReturn.
	Val Value
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read(%d)", o.Reg)
	case OpWrite:
		return fmt.Sprintf("write(%d, %d)", o.Reg, o.Val)
	case OpFence:
		return "fence()"
	case OpReturn:
		return fmt.Sprintf("return(%d)", o.Val)
	case OpTAS:
		return fmt.Sprintf("tas(%d, %d)", o.Reg, o.Val)
	default:
		return o.Kind.String()
	}
}

// ErrHalted is returned when stepping a process that is already in a final
// state.
var ErrHalted = errors.New("lang: process is in a final state")

// frame is one entry of the interpreter's control stack: a compiled
// statement block plus a cursor. A frame whose loop is non-nil is that
// while statement's body; when the cursor passes the end, the loop
// condition is re-evaluated instead of popping unconditionally. The
// frame carries its block and loop IDs from the push (blk.id,
// loop.loopID), so keying a state looks nothing up.
type frame struct {
	blk  *block
	idx  int
	loop *instr
}

// ProcState is the complete local state of one process executing a Program:
// its environment, control stack, pending operation, and final value. It is
// a value in the sense that Clone yields an independent deep copy; the
// encoder and the model checker rely on this.
type ProcState struct {
	prog *Program
	// env holds the locals and the program's code index (env.ci).
	env Env

	frames []frame

	// pending is the evaluated shared-memory operation the process is
	// poised to execute, valid when settled is true and halted is false.
	pending Op
	settled bool

	halted   bool
	retValue Value

	err error
}

// NewProcState returns the initial state of process pid (of n) executing
// prog.
func NewProcState(prog *Program, pid, n int) *ProcState {
	s := new(ProcState)
	s.reset(prog, prog.index(), pid, n)
	return s
}

// reset makes s the initial state of process pid (of n) executing prog,
// reusing s's storage for the locals and the control stack.
func (s *ProcState) reset(prog *Program, ci *codeIndex, pid, n int) {
	env, frames := s.env, s.frames[:0]
	env.reset(ci, pid, n)
	*s = ProcState{
		prog:   prog,
		env:    env,
		frames: append(frames, frame{blk: ci.body}),
	}
}

// Clone returns an independent deep copy of the state: two slice copies
// (locals and control stack), no per-variable work.
func (s *ProcState) Clone() *ProcState {
	c := *s
	c.env.mem = append([]Value(nil), s.env.mem...)
	c.frames = append([]frame(nil), s.frames...)
	return &c
}

// CopyFrom makes s an independent copy of src, reusing s's storage for
// the locals and the control stack: once s has held a state of src's
// size, the copy allocates nothing. The machine's rule-4 undo snapshot is
// a CopyFrom into recycled storage.
func (s *ProcState) CopyFrom(src *ProcState) {
	mem := append(s.env.mem[:0], src.env.mem...)
	frames := append(s.frames[:0], src.frames...)
	*s = *src
	s.env.mem, s.frames = mem, frames
}

// PID returns the process identifier this state was instantiated with.
func (s *ProcState) PID() int { return s.env.PID }

// CrashRestart writes the post-crash state under the recoverable
// mutual-exclusion model into into, reusing its storage (a nil into
// allocates), and returns it; into must not be s. For a program with no
// recovery section it is a cold restart: locals, control stack, pending
// operation and any recorded error are discarded. For a recoverable
// program, volatile locals and control state are lost but the program's
// declared durable locals survive, and the process re-enters execution at
// its recovery section; when recovery finishes, control resumes at
// Body[ResumeAt] rather than at the top of the program — the Chan–Woelfel
// recover→re-compete shape, not a fresh super-passage.
func (s *ProcState) CrashRestart(into *ProcState) *ProcState {
	if into == nil {
		into = new(ProcState)
	}
	p, ci := s.prog, s.env.ci
	into.reset(p, ci, s.env.PID, s.env.N)
	if len(p.Recovery) == 0 {
		return into
	}
	for _, i := range ci.durable {
		if s.env.isBound(i) {
			into.env.set(i, s.env.mem[i])
		}
	}
	// Bottom frame resumes the main body at ResumeAt once the recovery
	// frame on top of it is exhausted.
	into.frames = append(into.frames[:0],
		frame{blk: ci.body, idx: p.ResumeAt},
		frame{blk: ci.recovery},
	)
	return into
}

// Program returns the program this state executes.
func (s *ProcState) Program() *Program { return s.prog }

// Halted reports whether the process has executed return() and is in a
// final state.
func (s *ProcState) Halted() bool { return s.halted }

// ReturnValue returns the value of the final state; only meaningful when
// Halted is true.
func (s *ProcState) ReturnValue() Value { return s.retValue }

// Err returns the first evaluation error encountered (a program bug such as
// division by zero), or nil.
func (s *ProcState) Err() error { return s.err }

// Local returns the current value of a local variable (0 if unbound).
// Intended for tests and trace inspection.
func (s *ProcState) Local(name string) Value { return s.env.Lookup(name) }

// fail records err and halts further progress.
func (s *ProcState) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("lang: %s (pid %d): %w", s.prog.Name, s.env.PID, err)
	}
	return s.err
}

// settle advances through local computation (assignments, control flow)
// until the process is poised at a shared-memory operation or has run off
// the end of its program. Running off the end without a return() is treated
// as return(0), keeping the paper's "each process executes return() exactly
// once" convention total.
func (s *ProcState) settle() error {
	if s.err != nil {
		return s.err
	}
	if s.halted || s.settled {
		return nil
	}
	// Guard against pure local-computation divergence (a while loop whose
	// condition never touches shared memory). Any correct program performs
	// a shared op or terminates within a bounded number of local steps.
	const localStepLimit = 1 << 22
	for steps := 0; ; steps++ {
		if steps > localStepLimit {
			return s.fail(errors.New("local computation exceeded step limit (divergent local loop?)"))
		}
		if len(s.frames) == 0 {
			// Program ended without an explicit return.
			s.pending = Op{Kind: OpReturn, Val: 0}
			s.settled = true
			return nil
		}
		f := &s.frames[len(s.frames)-1]
		if f.idx >= len(f.blk.stmts) {
			if f.loop != nil {
				c, err := f.loop.loop.Cond.eval(&s.env)
				if err != nil {
					return s.fail(err)
				}
				if c != 0 {
					f.idx = 0
					continue
				}
			}
			s.frames = s.frames[:len(s.frames)-1]
			continue
		}
		in := &f.blk.code[f.idx]
		switch st := f.blk.stmts[f.idx].(type) {
		case *AssignStmt:
			v, err := st.E.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.env.set(in.dst, v)
			f.idx++
		case *IfStmt:
			c, err := st.Cond.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			f.idx++
			if c != 0 {
				if len(st.Then) > 0 {
					s.frames = append(s.frames, frame{blk: in.body})
				}
			} else if len(st.Else) > 0 {
				s.frames = append(s.frames, frame{blk: in.els})
			}
		case *WhileStmt:
			c, err := st.Cond.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			if c != 0 {
				s.frames = append(s.frames, frame{blk: in.body, loop: in})
			} else {
				f.idx++
			}
		case *ReadStmt:
			reg, err := st.Reg.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpRead, Reg: reg}
			s.settled = true
			return nil
		case *WriteStmt:
			reg, err := st.Reg.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			val, err := st.Val.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpWrite, Reg: reg, Val: val}
			s.settled = true
			return nil
		case *FenceStmt:
			s.pending = Op{Kind: OpFence}
			s.settled = true
			return nil
		case *TasStmt:
			reg, err := st.Reg.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			val, err := st.Val.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpTAS, Reg: reg, Val: val}
			s.settled = true
			return nil
		case *ReturnStmt:
			v, err := st.E.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpReturn, Val: v}
			s.settled = true
			return nil
		default:
			return s.fail(fmt.Errorf("unknown statement type %T", st))
		}
	}
}

// NextOp returns the shared-memory operation the process is poised to
// execute — the paper's next_p(C) — advancing through any local computation
// first. ok is false if the process is in a final state (next_p(C) = ∅).
func (s *ProcState) NextOp() (op Op, ok bool, err error) {
	if s.halted {
		return Op{}, false, nil
	}
	if err := s.settle(); err != nil {
		return Op{}, false, err
	}
	return s.pending, true, nil
}

// poisedAt returns the resolution of the statement that produced the
// pending op.
func (s *ProcState) poisedAt() *instr {
	f := &s.frames[len(s.frames)-1]
	return &f.blk.code[f.idx]
}

// advance moves the cursor past the statement that produced the pending op.
// When the pending op came from the implicit end-of-program return there is
// no frame to advance.
func (s *ProcState) advance() {
	s.settled = false
	if len(s.frames) == 0 {
		return
	}
	f := &s.frames[len(s.frames)-1]
	f.idx++
}

// CompleteRead delivers the result of the pending read and advances the
// program. It is an error if the process is not poised at a read.
func (s *ProcState) CompleteRead(v Value) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpRead {
		return s.fail(fmt.Errorf("CompleteRead while poised at %s", op))
	}
	s.env.set(s.poisedAt().dst, v)
	s.advance()
	return nil
}

// CompleteTas delivers the old shared-memory value of the pending
// test-and-set and advances the program. The machine performs the atomic
// read-modify-write itself; the process only learns the old value.
func (s *ProcState) CompleteTas(old Value) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpTAS {
		return s.fail(fmt.Errorf("CompleteTas while poised at %s", op))
	}
	s.env.set(s.poisedAt().dst, old)
	s.advance()
	return nil
}

// CompleteWrite advances the program past the pending write (the write
// itself — insertion into the write buffer — is the machine's job).
func (s *ProcState) CompleteWrite() error {
	return s.completeSimple(OpWrite)
}

// CompleteFence advances the program past the pending fence. The machine
// must only call this once the process's write buffer is empty.
func (s *ProcState) CompleteFence() error {
	return s.completeSimple(OpFence)
}

// CompleteReturn moves the process into its final state with the pending
// return value.
func (s *ProcState) CompleteReturn() error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpReturn {
		return s.fail(fmt.Errorf("CompleteReturn while poised at %s", op))
	}
	s.halted = true
	s.retValue = op.Val
	// The control stack keeps its capacity for a later CopyFrom.
	s.frames = s.frames[:0]
	s.settled = false
	return nil
}

func (s *ProcState) completeSimple(kind OpKind) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != kind {
		return s.fail(fmt.Errorf("complete %s while poised at %s", kind, op))
	}
	s.advance()
	return nil
}
