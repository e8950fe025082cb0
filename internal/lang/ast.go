// Package lang defines a small structured process language in which all
// shared-memory algorithms of this repository are written, together with a
// small-step interpreter whose process states are plain values.
//
// The language exists because the paper's machine (Section 2) gives the
// *system* control over scheduling and write-buffer commits, and the
// lower-bound encoder and the model checker both need to snapshot a
// configuration, run a hypothetical continuation, and roll back. Goroutine
// stacks cannot be cloned; interpreter states can.
//
// A program performs the paper's four shared-memory operations — read,
// write, fence, return — plus free local computation (assignment, if,
// while, for) over int64 locals. Expressions are pure: they read locals,
// the process ID, and the process count, never shared memory; shared reads
// are explicit Read statements. This mirrors the paper's cost model, in
// which only shared-memory steps are counted.
package lang

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Value is the domain of register and local-variable values. The paper uses
// naturals with a distinguished initial value ⊥; we use int64 with 0 playing
// the role of ⊥ (all the paper's algorithms already treat 0 as "unset").
type Value = int64

// Expr is a pure expression over a process's local environment.
type Expr interface {
	eval(env *Env) (Value, error)
	String() string
}

// Env is the local evaluation environment of one process. Locals live in
// slots: the program's code index numbers the locals the program can bind
// in sorted-name order (Program.LocalNames), and the environment keeps
// one value per slot plus a bound bitset as long as the program needs.
// Reading an unbound local yields 0, matching the zero-value convention
// for registers; the bitset is what tells it apart from one bound to 0.
type Env struct {
	// PID is the executing process's identifier in [0, N).
	PID int
	// N is the number of processes the program was instantiated for.
	N int

	ci *codeIndex
	// mem holds the slot values (mem[:nslots], 0 when unbound) followed
	// by the bound bitset's words, in one allocation so the rule-4 undo
	// snapshot copies a single slice.
	mem []Value
}

// newEnv returns an environment over ci's slots with every local unbound.
func newEnv(ci *codeIndex, pid, n int) Env {
	var e Env
	e.reset(ci, pid, n)
	return e
}

// reset makes e an environment over ci's slots with every local unbound,
// reusing e's storage when it is large enough.
func (e *Env) reset(ci *codeIndex, pid, n int) {
	slots := len(ci.localNames)
	mem := e.mem
	if need := slots + (slots+63)/64; cap(mem) >= need {
		mem = mem[:need]
		clear(mem)
	} else {
		mem = make([]Value, need)
	}
	*e = Env{PID: pid, N: n, ci: ci, mem: mem}
}

// split returns the slot values and the bound bitset's words.
func (e *Env) split() (vals, bound []Value) {
	n := len(e.ci.localNames)
	return e.mem[:n], e.mem[n:]
}

// isBound reports whether slot i is bound.
func (e *Env) isBound(i int) bool {
	_, bound := e.split()
	return uint64(bound[i/64])&(1<<(i%64)) != 0
}

// set binds slot i to v.
func (e *Env) set(i int, v Value) {
	vals, bound := e.split()
	vals[i] = v
	bound[i/64] |= Value(1) << (i % 64)
}

// local returns the value of the local with symbol sym (0 if unbound, or
// if the program never binds it).
func (e *Env) local(sym int32) Value {
	if int(sym) < len(e.ci.symSlot) {
		if i := e.ci.symSlot[sym]; i >= 0 {
			return e.mem[i]
		}
	}
	return 0
}

// Lookup returns the value bound to name, or 0 if unbound.
func (e *Env) Lookup(name string) Value {
	if i, ok := e.ci.slotOf(name); ok {
		return e.mem[i]
	}
	return 0
}

// symbols interns local-variable names process-wide. Statement and
// expression values are shared between programs (fence synthesis reuses
// one lock's fragments in every placement), so a local reference cannot
// carry a program's slot. It carries its name's symbol instead, fixed
// when the expression is built, and each program's code index maps
// symbols to slots. A symbol only ever indexes that map: it never reaches
// a key or an output, so the order in which names are first interned is
// invisible.
var symbols struct {
	sync.Mutex
	ids map[string]int32
}

// intern returns name's symbol.
func intern(name string) int32 {
	symbols.Lock()
	defer symbols.Unlock()
	id, ok := symbols.ids[name]
	if !ok {
		if symbols.ids == nil {
			symbols.ids = make(map[string]int32)
		}
		id = int32(len(symbols.ids))
		symbols.ids[name] = id
	}
	return id
}

// constExpr is an integer literal.
type constExpr struct{ v Value }

func (c constExpr) eval(*Env) (Value, error) { return c.v, nil }
func (c constExpr) String() string           { return fmt.Sprint(c.v) }

// localExpr reads a local variable.
type localExpr struct {
	name string
	sym  int32
}

func (l localExpr) eval(env *Env) (Value, error) { return env.local(l.sym), nil }
func (l localExpr) String() string               { return l.name }

// pidExpr evaluates to the executing process's ID.
type pidExpr struct{}

func (pidExpr) eval(env *Env) (Value, error) { return Value(env.PID), nil }
func (pidExpr) String() string               { return "pid" }

// nExpr evaluates to the process count.
type nExpr struct{}

func (nExpr) eval(env *Env) (Value, error) { return Value(env.N), nil }
func (nExpr) String() string               { return "nprocs" }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators. Comparison and logical operators yield 0 or 1.
const (
	OpAdd BinOp = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

type binExpr struct {
	op   BinOp
	l, r Expr
}

func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}

func (b binExpr) eval(env *Env) (Value, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators so guards like
	// (i < n && a[i] ...) stay natural.
	switch b.op {
	case OpAnd:
		if l == 0 {
			return 0, nil
		}
		r, err := b.r.eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	case OpOr:
		if l != 0 {
			return 1, nil
		}
		r, err := b.r.eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("lang: division by zero in %s", b)
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("lang: modulo by zero in %s", b)
		}
		return l % r, nil
	case OpEq:
		return boolVal(l == r), nil
	case OpNe:
		return boolVal(l != r), nil
	case OpLt:
		return boolVal(l < r), nil
	case OpLe:
		return boolVal(l <= r), nil
	case OpGt:
		return boolVal(l > r), nil
	case OpGe:
		return boolVal(l >= r), nil
	default:
		return 0, fmt.Errorf("lang: unknown binary operator %d", b.op)
	}
}

func (b binExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.l, binOpNames[b.op], b.r)
}

type notExpr struct{ e Expr }

func (n notExpr) eval(env *Env) (Value, error) {
	v, err := n.e.eval(env)
	if err != nil {
		return 0, err
	}
	return boolVal(v == 0), nil
}
func (n notExpr) String() string { return fmt.Sprintf("!%s", n.e) }

type condExpr struct{ c, a, b Expr }

func (x condExpr) eval(env *Env) (Value, error) {
	c, err := x.c.eval(env)
	if err != nil {
		return 0, err
	}
	if c != 0 {
		return x.a.eval(env)
	}
	return x.b.eval(env)
}
func (x condExpr) String() string { return fmt.Sprintf("(%s ? %s : %s)", x.c, x.a, x.b) }

// Expression constructors.

// I returns an integer literal expression.
func I(v Value) Expr { return constExpr{v} }

// L returns a reference to local variable name.
func L(name string) Expr { return localExpr{name: name, sym: intern(name)} }

// PID returns the expression evaluating to the executing process's ID.
func PID() Expr { return pidExpr{} }

// N returns the expression evaluating to the instantiated process count.
func N() Expr { return nExpr{} }

// Add returns l + r.
func Add(l, r Expr) Expr { return binExpr{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return binExpr{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return binExpr{OpMul, l, r} }

// Div returns l / r (errors at run time if r evaluates to 0).
func Div(l, r Expr) Expr { return binExpr{OpDiv, l, r} }

// Mod returns l % r (errors at run time if r evaluates to 0).
func Mod(l, r Expr) Expr { return binExpr{OpMod, l, r} }

// Eq returns l == r as 0/1.
func Eq(l, r Expr) Expr { return binExpr{OpEq, l, r} }

// Ne returns l != r as 0/1.
func Ne(l, r Expr) Expr { return binExpr{OpNe, l, r} }

// Lt returns l < r as 0/1.
func Lt(l, r Expr) Expr { return binExpr{OpLt, l, r} }

// Le returns l <= r as 0/1.
func Le(l, r Expr) Expr { return binExpr{OpLe, l, r} }

// Gt returns l > r as 0/1.
func Gt(l, r Expr) Expr { return binExpr{OpGt, l, r} }

// Ge returns l >= r as 0/1.
func Ge(l, r Expr) Expr { return binExpr{OpGe, l, r} }

// And returns the short-circuit conjunction of l and r as 0/1.
func And(l, r Expr) Expr { return binExpr{OpAnd, l, r} }

// Or returns the short-circuit disjunction of l and r as 0/1.
func Or(l, r Expr) Expr { return binExpr{OpOr, l, r} }

// Not returns the logical negation of e as 0/1.
func Not(e Expr) Expr { return notExpr{e} }

// Cond returns the value of a if c is nonzero and of b otherwise.
func Cond(c, a, b Expr) Expr { return condExpr{c, a, b} }

// Stmt is a program statement.
type Stmt interface {
	stmtNode()
	String() string
}

// AssignStmt binds Dst := E.
type AssignStmt struct {
	Dst string
	E   Expr
}

func (*AssignStmt) stmtNode()        {}
func (s *AssignStmt) String() string { return fmt.Sprintf("%s := %s", s.Dst, s.E) }

// ReadStmt performs a shared-memory read of register Reg into local Dst.
type ReadStmt struct {
	Dst string
	Reg Expr
}

func (*ReadStmt) stmtNode()        {}
func (s *ReadStmt) String() string { return fmt.Sprintf("%s := read(%s)", s.Dst, s.Reg) }

// WriteStmt performs a shared-memory write of Val to register Reg.
type WriteStmt struct {
	Reg Expr
	Val Expr
}

func (*WriteStmt) stmtNode()        {}
func (s *WriteStmt) String() string { return fmt.Sprintf("write(%s, %s)", s.Reg, s.Val) }

// FenceStmt is a memory fence: the process takes no further program steps
// until its write buffer has drained.
type FenceStmt struct{}

func (*FenceStmt) stmtNode()      {}
func (*FenceStmt) String() string { return "fence()" }

// ReturnStmt ends the program, entering a final state with value E.
type ReturnStmt struct{ E Expr }

func (*ReturnStmt) stmtNode()        {}
func (s *ReturnStmt) String() string { return fmt.Sprintf("return %s", s.E) }

// TasStmt performs an atomic test-and-set on register Reg: in one machine
// step, the old shared-memory value is read, Val is stored iff the old
// value was 0 (the ⊥ convention: unset means free), and the old value is
// bound to Dst. The recoverable locks use it as their one atomic base
// object — a successful TAS leaves a durable ownership mark in shared
// memory that a crashed process's recovery section can consult.
type TasStmt struct {
	Dst string
	Reg Expr
	Val Expr
}

func (*TasStmt) stmtNode()        {}
func (s *TasStmt) String() string { return fmt.Sprintf("%s := tas(%s, %s)", s.Dst, s.Reg, s.Val) }

// IfStmt executes Then if Cond is nonzero and Else (possibly empty)
// otherwise.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*IfStmt) stmtNode()        {}
func (s *IfStmt) String() string { return fmt.Sprintf("if %s { ... }", s.Cond) }

// WhileStmt executes Body while Cond is nonzero. Spin loops are written as
// While loops whose bodies re-read the awaited register.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

func (*WhileStmt) stmtNode()        {}
func (s *WhileStmt) String() string { return fmt.Sprintf("while %s { ... }", s.Cond) }

// Statement constructors.

// Assign returns the statement dst := e.
func Assign(dst string, e Expr) Stmt { return &AssignStmt{Dst: dst, E: e} }

// Read returns the statement dst := read(reg).
func Read(dst string, reg Expr) Stmt { return &ReadStmt{Dst: dst, Reg: reg} }

// Write returns the statement write(reg, val).
func Write(reg, val Expr) Stmt { return &WriteStmt{Reg: reg, Val: val} }

// Fence returns a fence statement.
func Fence() Stmt { return &FenceStmt{} }

// Return returns a return statement with value e.
func Return(e Expr) Stmt { return &ReturnStmt{E: e} }

// Tas returns the statement dst := tas(reg, val): atomically read
// register reg, store val iff the old value was 0, and bind the old value
// to dst. Like a fence, a TAS drains the process's write buffer before
// executing (an atomic read-modify-write is ordered on every model here).
func Tas(dst string, reg, val Expr) Stmt { return &TasStmt{Dst: dst, Reg: reg, Val: val} }

// If returns a one-armed conditional.
func If(cond Expr, then ...Stmt) Stmt { return &IfStmt{Cond: cond, Then: then} }

// IfElse returns a two-armed conditional.
func IfElse(cond Expr, then, els []Stmt) Stmt {
	return &IfStmt{Cond: cond, Then: then, Else: els}
}

// While returns a while loop.
func While(cond Expr, body ...Stmt) Stmt { return &WhileStmt{Cond: cond, Body: body} }

// For returns the counted loop: v := from; while v < to { body; v := v+1 }.
// The loop variable is an ordinary local and is visible after the loop.
func For(v string, from, to Expr, body ...Stmt) []Stmt {
	inner := make([]Stmt, 0, len(body)+1)
	inner = append(inner, body...)
	inner = append(inner, Assign(v, Add(L(v), I(1))))
	return []Stmt{
		Assign(v, from),
		While(Lt(L(v), to), inner...),
	}
}

// Program is a complete process program. The same Program value is shared,
// immutably, by all processes executing it; per-process state lives in
// ProcState. The first ProcState (or LocalNames/FenceOnlyLoop call) on a
// program compiles it against a code index, once: every local the program
// can bind gets a dense slot in sorted-name order, and every statement
// block and while loop a build-stable ID (statekey.go). A program must
// not be modified after that.
type Program struct {
	// Name identifies the program in traces and error messages.
	Name string
	// Body is the statement sequence each process executes.
	Body []Stmt

	// Recovery, when non-empty, makes the program recoverable: a crashed
	// process does not cold-restart but re-enters here, repairs its
	// protocol state, and then resumes the main body at Body[ResumeAt].
	// Durable names the locals that survive a crash (per-process
	// non-volatile memory); all other locals are volatile and reset to
	// unbound. See DESIGN.md §5h.
	Recovery []Stmt
	ResumeAt int
	Durable  []string

	ci atomic.Pointer[codeIndex]
}

// NewProgram returns a program with the given name and body.
func NewProgram(name string, body ...Stmt) *Program {
	return &Program{Name: name, Body: body}
}

// Recoverable reports whether the program declares a recovery section.
func (p *Program) Recoverable() bool { return len(p.Recovery) > 0 }
