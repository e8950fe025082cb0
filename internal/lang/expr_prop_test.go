package lang

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randExpr builds a random expression tree over the given locals, with
// depth-bounded recursion. Division and modulo are avoided so evaluation
// never errors; their error paths are tested separately.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return I(int64(rng.Intn(21) - 10))
		case 1:
			return L("a")
		case 2:
			return L("b")
		default:
			return PID()
		}
	}
	l, r := randExpr(rng, depth-1), randExpr(rng, depth-1)
	switch rng.Intn(10) {
	case 0:
		return Add(l, r)
	case 1:
		return Sub(l, r)
	case 2:
		return Mul(l, r)
	case 3:
		return Eq(l, r)
	case 4:
		return Lt(l, r)
	case 5:
		return And(l, r)
	case 6:
		return Or(l, r)
	case 7:
		return Not(l)
	case 8:
		return Cond(l, r, I(0))
	default:
		return Ge(l, r)
	}
}

func evalOK(t *testing.T, e Expr, env *Env) Value {
	t.Helper()
	v, err := e.eval(env)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

// TestQuickEvalDeterministic: expression evaluation is pure — same
// environment, same value, and the environment is never mutated.
func TestQuickEvalDeterministic(t *testing.T) {
	f := func(seed int64, a, b int8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randExpr(rng, 4)
		env := envOf(3, 8, map[string]Value{"a": Value(a), "b": Value(b)})
		before := slices.Clone(env.mem)
		v1, err1 := e.eval(env)
		v2, err2 := e.eval(env)
		if (err1 == nil) != (err2 == nil) || v1 != v2 {
			return false
		}
		return slices.Equal(env.mem, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickBooleanResultsAre01: comparison and logical operators always
// yield 0 or 1, whatever their operands.
func TestQuickBooleanResultsAre01(t *testing.T) {
	f := func(seed int64, a, b int16) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := randExpr(rng, 2), randExpr(rng, 2)
		env := envOf(1, 4, map[string]Value{"a": Value(a), "b": Value(b)})
		for _, e := range []Expr{Eq(x, y), Ne(x, y), Lt(x, y), Le(x, y), Gt(x, y), Ge(x, y), And(x, y), Or(x, y), Not(x)} {
			v, err := e.eval(env)
			if err != nil {
				continue
			}
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeMorgan: !(x && y) == (!x || !y) and dually, over arbitrary
// subexpressions.
func TestDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	env := envOf(2, 4, map[string]Value{"a": 5, "b": -3})
	for trial := 0; trial < 200; trial++ {
		x, y := randExpr(rng, 3), randExpr(rng, 3)
		l1 := evalOK(t, Not(And(x, y)), env)
		r1 := evalOK(t, Or(Not(x), Not(y)), env)
		if l1 != r1 {
			t.Fatalf("De Morgan ∧: !(%s && %s)", x, y)
		}
		l2 := evalOK(t, Not(Or(x, y)), env)
		r2 := evalOK(t, And(Not(x), Not(y)), env)
		if l2 != r2 {
			t.Fatalf("De Morgan ∨: !(%s || %s)", x, y)
		}
	}
}

// TestComparisonTrichotomy: exactly one of <, ==, > holds.
func TestComparisonTrichotomy(t *testing.T) {
	f := func(a, b int64) bool {
		env := envOf(0, 0, map[string]Value{"a": a, "b": b})
		lt, _ := Lt(L("a"), L("b")).eval(env)
		eq, _ := Eq(L("a"), L("b")).eval(env)
		gt, _ := Gt(L("a"), L("b")).eval(env)
		return lt+eq+gt == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCondEquivalence: Cond(c, a, b) matches the if/else semantics, and
// short-circuits the untaken branch (errors in it are not raised).
func TestCondEquivalence(t *testing.T) {
	env := envOf(0, 0, nil)
	if v := evalOK(t, Cond(I(1), I(7), Div(I(1), I(0))), env); v != 7 {
		t.Fatalf("taken-then: %d", v)
	}
	if v := evalOK(t, Cond(I(0), Div(I(1), I(0)), I(9)), env); v != 9 {
		t.Fatalf("taken-else: %d", v)
	}
	if _, err := Cond(I(1), Div(I(1), I(0)), I(9)).eval(env); err == nil {
		t.Fatal("error in the taken branch must surface")
	}
}

// TestNegativeValuesFlowThrough: the machine word is a signed int64;
// arithmetic must not clamp or wrap surprisingly within range.
func TestNegativeValuesFlowThrough(t *testing.T) {
	env := envOf(0, 0, map[string]Value{"a": -40})
	cases := []struct {
		e    Expr
		want Value
	}{
		{Add(L("a"), I(-2)), -42},
		{Sub(I(0), L("a")), 40},
		{Mul(L("a"), I(-1)), 40},
		{Div(L("a"), I(4)), -10},
		{Mod(L("a"), I(7)), -5}, // Go semantics: sign follows the dividend
		{Lt(L("a"), I(0)), 1},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

// TestDeepNesting: the interpreter handles deeply nested control flow
// without recursion limits (the control stack is explicit).
func TestDeepNesting(t *testing.T) {
	const depth = 200
	var body []Stmt = []Stmt{Assign("x", Add(L("x"), I(1)))}
	for i := 0; i < depth; i++ {
		body = []Stmt{If(I(1), body...)}
	}
	prog := NewProgram("deep", append(body, Return(L("x")))...)
	v, _ := run(t, prog, 0, 1, map[Value]Value{})
	if v != 1 {
		t.Fatalf("deeply nested result %d, want 1", v)
	}
}

// TestShadowFreeLocals: locals are function-scoped, not block-scoped — a
// loop variable keeps its final value after the loop, which the lock
// builders rely on.
func TestShadowFreeLocals(t *testing.T) {
	stmts := For("j", I(0), I(5))
	prog := NewProgram("scope", append(stmts, Return(L("j")))...)
	if v, _ := run(t, prog, 0, 1, map[Value]Value{}); v != 5 {
		t.Fatalf("loop variable after loop = %d, want 5", v)
	}
}
