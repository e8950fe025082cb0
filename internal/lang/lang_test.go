package lang

import (
	"strings"
	"testing"
)

// run drives a single process to completion, serving reads from mem and
// applying writes to mem immediately (an SC harness good enough to unit-test
// the interpreter in isolation from the machine package).
func run(t *testing.T, prog *Program, pid, n int, mem map[Value]Value) (Value, *ProcState) {
	t.Helper()
	s := NewProcState(prog, pid, n)
	for steps := 0; steps < 1_000_000; steps++ {
		op, ok, err := s.NextOp()
		if err != nil {
			t.Fatalf("NextOp: %v", err)
		}
		if !ok {
			return s.ReturnValue(), s
		}
		switch op.Kind {
		case OpRead:
			if err := s.CompleteRead(mem[op.Reg]); err != nil {
				t.Fatalf("CompleteRead: %v", err)
			}
		case OpWrite:
			mem[op.Reg] = op.Val
			if err := s.CompleteWrite(); err != nil {
				t.Fatalf("CompleteWrite: %v", err)
			}
		case OpFence:
			if err := s.CompleteFence(); err != nil {
				t.Fatalf("CompleteFence: %v", err)
			}
		case OpReturn:
			if err := s.CompleteReturn(); err != nil {
				t.Fatalf("CompleteReturn: %v", err)
			}
			return s.ReturnValue(), s
		}
	}
	t.Fatal("program did not terminate")
	return 0, nil
}

// envOf returns an evaluation environment for process pid of n with the
// given locals bound: the environment of a program that binds exactly
// those names.
func envOf(pid, n int, locals map[string]Value) *Env {
	body := make([]Stmt, 0, len(locals))
	for name := range locals {
		body = append(body, Assign(name, I(0)))
	}
	ci := NewProgram("env", body...).index()
	env := newEnv(ci, pid, n)
	for name, v := range locals {
		i, _ := ci.slotOf(name)
		env.set(i, v)
	}
	return &env
}

func TestExprArithmetic(t *testing.T) {
	env := envOf(3, 8, map[string]Value{"x": 10, "y": 4})
	cases := []struct {
		e    Expr
		want Value
	}{
		{I(7), 7},
		{L("x"), 10},
		{L("unbound"), 0},
		{PID(), 3},
		{N(), 8},
		{Add(L("x"), L("y")), 14},
		{Sub(L("x"), L("y")), 6},
		{Mul(L("x"), L("y")), 40},
		{Div(L("x"), L("y")), 2},
		{Mod(L("x"), L("y")), 2},
		{Eq(L("x"), I(10)), 1},
		{Eq(L("x"), I(11)), 0},
		{Ne(L("x"), I(11)), 1},
		{Lt(L("y"), L("x")), 1},
		{Le(I(4), L("y")), 1},
		{Gt(L("y"), L("x")), 0},
		{Ge(L("x"), I(10)), 1},
		{And(I(1), I(2)), 1},
		{And(I(0), I(2)), 0},
		{Or(I(0), I(0)), 0},
		{Or(I(0), I(5)), 1},
		{Not(I(0)), 1},
		{Not(I(3)), 0},
		{Cond(I(1), I(10), I(20)), 10},
		{Cond(I(0), I(10), I(20)), 20},
	}
	for _, c := range cases {
		got, err := c.e.eval(env)
		if err != nil {
			t.Errorf("%s: %v", c.e, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestExprShortCircuit(t *testing.T) {
	env := envOf(0, 0, nil)
	// Division by zero on the right must not be evaluated when the left
	// side short-circuits.
	if v, err := And(I(0), Div(I(1), I(0))).eval(env); err != nil || v != 0 {
		t.Errorf("And short-circuit: v=%d err=%v", v, err)
	}
	if v, err := Or(I(1), Div(I(1), I(0))).eval(env); err != nil || v != 1 {
		t.Errorf("Or short-circuit: v=%d err=%v", v, err)
	}
}

func TestExprErrors(t *testing.T) {
	env := envOf(0, 0, nil)
	if _, err := Div(I(1), I(0)).eval(env); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Mod(I(1), I(0)).eval(env); err == nil {
		t.Error("modulo by zero should error")
	}
	if _, err := Add(Div(I(1), I(0)), I(1)).eval(env); err == nil {
		t.Error("error should propagate from left operand")
	}
}

func TestStraightLineProgram(t *testing.T) {
	prog := NewProgram("straight",
		Assign("a", I(5)),
		Assign("b", Add(L("a"), I(2))),
		Return(Mul(L("a"), L("b"))),
	)
	v, _ := run(t, prog, 0, 1, map[Value]Value{})
	if v != 35 {
		t.Fatalf("returned %d, want 35", v)
	}
}

func TestReadWrite(t *testing.T) {
	mem := map[Value]Value{100: 42}
	prog := NewProgram("rw",
		Read("x", I(100)),
		Write(I(101), Add(L("x"), I(1))),
		Fence(),
		Return(L("x")),
	)
	v, _ := run(t, prog, 0, 1, mem)
	if v != 42 {
		t.Fatalf("returned %d, want 42", v)
	}
	if mem[101] != 43 {
		t.Fatalf("mem[101] = %d, want 43", mem[101])
	}
}

func TestIfBothArms(t *testing.T) {
	mk := func(c Value) *Program {
		return NewProgram("if",
			Assign("c", I(c)),
			IfElse(L("c"),
				[]Stmt{Assign("r", I(1))},
				[]Stmt{Assign("r", I(2))}),
			Return(L("r")),
		)
	}
	if v, _ := run(t, mk(1), 0, 1, map[Value]Value{}); v != 1 {
		t.Errorf("then arm: got %d", v)
	}
	if v, _ := run(t, mk(0), 0, 1, map[Value]Value{}); v != 2 {
		t.Errorf("else arm: got %d", v)
	}
}

func TestIfEmptyArms(t *testing.T) {
	prog := NewProgram("ifempty",
		If(I(0)), // no-op either way
		If(I(1)),
		Return(I(9)),
	)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 9 {
		t.Errorf("got %d, want 9", v)
	}
}

func TestWhileLoop(t *testing.T) {
	prog := NewProgram("while",
		Assign("i", I(0)),
		Assign("s", I(0)),
		While(Lt(L("i"), I(10)),
			Assign("s", Add(L("s"), L("i"))),
			Assign("i", Add(L("i"), I(1))),
		),
		Return(L("s")),
	)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 45 {
		t.Fatalf("sum 0..9 = %d, want 45", v)
	}
}

func TestWhileZeroIterations(t *testing.T) {
	prog := NewProgram("while0",
		While(I(0), Assign("x", I(1))),
		Return(L("x")),
	)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 0 {
		t.Fatalf("got %d, want 0", v)
	}
}

func TestForLoop(t *testing.T) {
	body := For("j", I(2), I(6),
		Assign("s", Add(L("s"), L("j"))),
	)
	stmts := append(body, Return(L("s")))
	prog := NewProgram("for", stmts...)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 2+3+4+5 {
		t.Fatalf("got %d, want 14", v)
	}
}

func TestNestedLoops(t *testing.T) {
	inner := For("j", I(0), I(4), Assign("c", Add(L("c"), I(1))))
	outerBody := append([]Stmt{}, inner...)
	outer := For("i", I(0), I(3), outerBody...)
	prog := NewProgram("nested", append(outer, Return(L("c")))...)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 12 {
		t.Fatalf("got %d, want 12", v)
	}
}

func TestSpinLoopReadsEachIteration(t *testing.T) {
	// The spin pattern used by all locks: re-read the register inside the
	// loop. Here the harness flips the value after 3 reads.
	prog := NewProgram("spin",
		Read("v", I(7)),
		While(Ne(L("v"), I(0)),
			Read("v", I(7)),
		),
		Return(I(1)),
	)
	s := NewProcState(prog, 0, 1)
	reads := 0
	for {
		op, ok, err := s.NextOp()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch op.Kind {
		case OpRead:
			reads++
			v := Value(1)
			if reads > 3 {
				v = 0
			}
			if err := s.CompleteRead(v); err != nil {
				t.Fatal(err)
			}
		case OpReturn:
			if err := s.CompleteReturn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reads != 4 {
		t.Fatalf("spin performed %d reads, want 4", reads)
	}
	if s.ReturnValue() != 1 {
		t.Fatalf("return %d, want 1", s.ReturnValue())
	}
}

func TestPIDAndN(t *testing.T) {
	prog := NewProgram("pidn", Return(Add(Mul(PID(), I(100)), N())))
	if v, _ := run(t, prog, 3, 7, map[Value]Value{}); v != 307 {
		t.Fatalf("got %d, want 307", v)
	}
}

func TestImplicitReturn(t *testing.T) {
	prog := NewProgram("implicit", Assign("x", I(5)))
	v, s := run(t, prog, 0, 1, map[Value]Value{})
	if v != 0 || !s.Halted() {
		t.Fatalf("implicit return: v=%d halted=%v", v, s.Halted())
	}
}

func TestHaltedNextOp(t *testing.T) {
	prog := NewProgram("halt", Return(I(1)))
	_, s := run(t, prog, 0, 1, map[Value]Value{})
	if _, ok, err := s.NextOp(); ok || err != nil {
		t.Fatalf("NextOp after halt: ok=%v err=%v", ok, err)
	}
	if err := s.CompleteReturn(); err != ErrHalted {
		t.Fatalf("CompleteReturn after halt: %v, want ErrHalted", err)
	}
}

func TestCompleteWrongKind(t *testing.T) {
	prog := NewProgram("wrong", Read("x", I(0)), Return(I(0)))
	s := NewProcState(prog, 0, 1)
	if err := s.CompleteWrite(); err == nil {
		t.Fatal("CompleteWrite while poised at read should error")
	}
	if s.Err() == nil {
		t.Fatal("state should record the error")
	}
}

func TestCloneIndependence(t *testing.T) {
	prog := NewProgram("clone",
		Assign("i", I(0)),
		While(Lt(L("i"), I(5)),
			Write(I(50), L("i")),
			Assign("i", Add(L("i"), I(1))),
		),
		Return(L("i")),
	)
	s := NewProcState(prog, 0, 1)
	// Advance partway: two writes.
	for k := 0; k < 2; k++ {
		op, _, err := s.NextOp()
		if err != nil || op.Kind != OpWrite {
			t.Fatalf("expected write, got %v (%v)", op, err)
		}
		if err := s.CompleteWrite(); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Clone()
	// Drive the clone to completion.
	for {
		op, ok, err := c.NextOp()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch op.Kind {
		case OpWrite:
			if err := c.CompleteWrite(); err != nil {
				t.Fatal(err)
			}
		case OpReturn:
			if err := c.CompleteReturn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !c.Halted() || c.ReturnValue() != 5 {
		t.Fatalf("clone: halted=%v ret=%d", c.Halted(), c.ReturnValue())
	}
	// Original must be unaffected: still two writes in. The assignment
	// after the second write has not run yet (it executes on the next
	// settle), so i is 1.
	if s.Halted() {
		t.Fatal("original was advanced by stepping the clone")
	}
	if got := s.Local("i"); got != 1 {
		t.Fatalf("original i = %d, want 1", got)
	}
}

func TestLocalDivergenceDetected(t *testing.T) {
	prog := NewProgram("diverge",
		While(I(1), Assign("x", Add(L("x"), I(1)))),
		Return(I(0)),
	)
	s := NewProcState(prog, 0, 1)
	if _, _, err := s.NextOp(); err == nil {
		t.Fatal("pure local divergence should be detected")
	}
}

func TestDivisionByZeroSurfaced(t *testing.T) {
	prog := NewProgram("divzero", Assign("x", Div(I(1), I(0))), Return(I(0)))
	s := NewProcState(prog, 0, 1)
	_, _, err := s.NextOp()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
	if s.Err() == nil {
		t.Fatal("Err() should be sticky")
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpRead, Reg: 3}, "read(3)"},
		{Op{Kind: OpWrite, Reg: 4, Val: 9}, "write(4, 9)"},
		{Op{Kind: OpFence}, "fence()"},
		{Op{Kind: OpReturn, Val: 2}, "return(2)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestStmtStrings(t *testing.T) {
	if got := Assign("x", I(1)).String(); got != "x := 1" {
		t.Errorf("Assign string %q", got)
	}
	if got := Read("x", I(5)).String(); got != "x := read(5)" {
		t.Errorf("Read string %q", got)
	}
	if got := Write(I(5), I(6)).String(); got != "write(5, 6)" {
		t.Errorf("Write string %q", got)
	}
	if got := Fence().String(); got != "fence()" {
		t.Errorf("Fence string %q", got)
	}
}

func TestLoopConditionReevaluatedAfterBody(t *testing.T) {
	// The loop condition must be checked after each full body pass, not
	// per statement: body writes twice per iteration.
	prog := NewProgram("loopcheck",
		Assign("i", I(0)),
		While(Lt(L("i"), I(2)),
			Write(I(60), L("i")),
			Write(I(61), L("i")),
			Assign("i", Add(L("i"), I(1))),
		),
		Return(L("i")),
	)
	s := NewProcState(prog, 0, 1)
	writes := 0
	for {
		op, ok, err := s.NextOp()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch op.Kind {
		case OpWrite:
			writes++
			if err := s.CompleteWrite(); err != nil {
				t.Fatal(err)
			}
		case OpReturn:
			if err := s.CompleteReturn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if writes != 4 {
		t.Fatalf("writes = %d, want 4", writes)
	}
}

// TestFenceOnlyLoop classifies the loop shapes the model checker's static
// cycle proviso depends on: a program is flagged when some fence's
// innermost enclosing loop has no read, write, TAS or return at the top
// level of its body, in Body or in Recovery.
func TestFenceOnlyLoop(t *testing.T) {
	c, r := L("c"), I(0)
	for _, tc := range []struct {
		name string
		prog *Program
		want bool
	}{
		{"while { fence }", NewProgram("p", While(c, Fence())), true},
		{"while { if c { read } else { fence } }", NewProgram("p",
			While(c, IfElse(c, []Stmt{Read("x", r)}, []Stmt{Fence()}))), true},
		{"bare inner loop with a fence, outer loop reads", NewProgram("p",
			While(c, Read("x", r), While(L("d"), Fence()))), true},
		{"read only inside a nested loop", NewProgram("p",
			While(c, While(L("d"), Read("x", r)), Fence())), true},
		{"fence-only loop in Recovery alone", &Program{Name: "p",
			Body:     []Stmt{Read("x", r), Fence(), Return(I(0))},
			Recovery: []Stmt{While(c, Assign("c", I(0)), Fence())}}, true},
		{"while { read; fence }", NewProgram("p", While(c, Read("x", r), Fence())), false},
		{"while { fence; write }", NewProgram("p", While(c, Fence(), Write(r, I(1)))), false},
		{"while { tas; fence }", NewProgram("p", While(c, Tas("x", r, I(1)), Fence())), false},
		{"while { fence; return }", NewProgram("p", While(c, Fence(), Return(I(0)))), false},
		{"fence in an inner loop that reads, bare outer loop", NewProgram("p",
			While(c, While(L("d"), Read("x", r), Fence()))), false},
		{"fence outside every loop", NewProgram("p", Fence(), While(c, Assign("c", I(0))), Return(I(0))), false},
	} {
		if got := tc.prog.FenceOnlyLoop(); got != tc.want {
			t.Errorf("%s: FenceOnlyLoop() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
