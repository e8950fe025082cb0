package lang

import (
	"strings"
	"testing"
)

// TestTasStmtSurface: the TAS statement prints, analyzes, and settles
// into an OpTAS pending op that CompleteTas resolves.
func TestTasStmtSurface(t *testing.T) {
	p := NewProgram("t",
		Tas("old", I(100), Add(PID(), I(1))),
		Return(L("old")),
	)
	text := Format(p)
	if !strings.Contains(text, "old := tas(100, (pid + 1))") {
		t.Errorf("Format missing tas statement:\n%s", text)
	}
	an := Analyze(p)
	if an.Reads < 1 || an.Writes < 1 {
		t.Errorf("Analyze did not count the TAS as read+write: %+v", an)
	}

	s := NewProcState(p, 3, 4)
	op, ok, err := s.NextOp()
	if err != nil || !ok || op.Kind != OpTAS || op.Reg != 100 || op.Val != 4 {
		t.Fatalf("NextOp = %v %v %v, want tas(100, 4)", op, ok, err)
	}
	if err := s.CompleteTas(7); err != nil {
		t.Fatal(err)
	}
	// The observed old value is bound to the destination local and flows
	// into the return.
	op, ok, err = s.NextOp()
	if err != nil || !ok || op.Kind != OpReturn {
		t.Fatalf("after CompleteTas: %v %v %v, want the return op", op, ok, err)
	}
	if err := s.CompleteReturn(); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() || s.ReturnValue() != 7 {
		t.Fatalf("halted=%v return=%d, want return of the bound old value 7", s.Halted(), s.ReturnValue())
	}

	// Completing a TAS when none is pending is an interpreter error.
	q := NewProcState(NewProgram("r", Read("x", I(5)), Return(I(0))), 0, 1)
	if _, _, err := q.NextOp(); err != nil {
		t.Fatal(err)
	}
	if err := q.CompleteTas(0); err == nil {
		t.Error("CompleteTas resolved a pending read")
	}
}

// TestRecoverableProgramSurface: Recoverable(), the Format block, and the
// CrashRestart frame layout (recovery first, then resume point).
func TestRecoverableProgramSurface(t *testing.T) {
	p := NewProgram("r",
		Read("d", I(100)),
		Read("v", I(101)),
		Return(I(0)),
	)
	if p.Recoverable() {
		t.Fatal("plain program claims recoverability")
	}
	p.Recovery = []Stmt{Fence()}
	p.ResumeAt = 1
	p.Durable = []string{"d"}
	if !p.Recoverable() {
		t.Fatal("Recoverable() = false with a recovery section")
	}
	text := Format(p)
	if !strings.Contains(text, "recovery resume=1 durable=d {") {
		t.Errorf("Format missing recovery header:\n%s", text)
	}

	s := NewProcState(p, 0, 2)
	for i := 0; i < 2; i++ { // bind d and v
		op, ok, err := s.NextOp()
		if err != nil || !ok {
			t.Fatalf("read %d: %v %v", i, ok, err)
		}
		if err := s.CompleteRead(Value(10 * (i + 1))); err != nil {
			t.Fatal(err)
		}
		_ = op
	}
	ns := s.CrashRestart(nil)
	if ns == s {
		t.Fatal("recoverable CrashRestart returned the same state")
	}
	// Only the durable local survives (v was bound to 20 pre-crash).
	if got := ns.Local("d"); got != 10 {
		t.Errorf("durable d = %d, want 10", got)
	}
	if got := ns.Local("v"); got != 0 {
		t.Errorf("volatile v = %d after the crash, want unbound (0)", got)
	}
	// The first op after restart comes from the recovery section (a
	// fence), then control resumes at Body[ResumeAt] — the second read.
	op, ok, err := ns.NextOp()
	if err != nil || !ok || op.Kind != OpFence {
		t.Fatalf("first post-crash op = %v %v %v, want the recovery fence", op, ok, err)
	}
	if err := ns.CompleteFence(); err != nil {
		t.Fatal(err)
	}
	op, ok, err = ns.NextOp()
	if err != nil || !ok || op.Kind != OpRead || op.Reg != 101 {
		t.Fatalf("post-recovery op = %v %v %v, want the resumed read of R101", op, ok, err)
	}

	// A non-recoverable program's CrashRestart is a plain cold restart.
	q := NewProcState(NewProgram("c", Read("x", I(5)), Return(I(0))), 0, 1)
	if _, _, err := q.NextOp(); err != nil {
		t.Fatal(err)
	}
	if err := q.CompleteRead(1); err != nil {
		t.Fatal(err)
	}
	nq := q.CrashRestart(nil)
	op, ok, err = nq.NextOp()
	if err != nil || !ok || op.Kind != OpRead || op.Reg != 5 {
		t.Fatalf("cold CrashRestart op = %v %v %v, want the first read", op, ok, err)
	}
}

// TestStateKeyRecoverySections: statements in the recovery section get
// code-index identities of their own — two process states poised at the
// same body index, one inside recovery and one not, key apart.
func TestStateKeyRecoverySections(t *testing.T) {
	mk := func() *Program {
		p := NewProgram("k",
			Read("d", I(100)),
			Fence(),
			Return(I(0)),
		)
		p.Recovery = []Stmt{Fence(), Fence()}
		p.ResumeAt = 1
		p.Durable = []string{"d"}
		return p
	}
	run := func(crash bool, recSteps int) []byte {
		s := NewProcState(mk(), 0, 1)
		if _, _, err := s.NextOp(); err != nil {
			t.Fatal(err)
		}
		if err := s.CompleteRead(5); err != nil {
			t.Fatal(err)
		}
		if crash {
			s = s.CrashRestart(nil)
			for i := 0; i < recSteps; i++ {
				if _, _, err := s.NextOp(); err != nil {
					t.Fatal(err)
				}
				if err := s.CompleteFence(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Settle before encoding (the machine's key encoder does the same):
		// a just-finished recovery frame is popped by the next NextOp.
		if _, _, err := s.NextOp(); err != nil {
			t.Fatal(err)
		}
		return s.AppendStateKey(nil)
	}
	fresh := run(false, 0)
	rec0 := run(true, 0)
	rec1 := run(true, 1)
	done := run(true, 2)
	if string(fresh) == string(rec0) || string(fresh) == string(rec1) {
		t.Error("in-recovery state keys like the fresh state")
	}
	if string(rec0) == string(rec1) {
		t.Error("distinct recovery locations collide")
	}
	if string(fresh) != string(done) {
		t.Error("completed recovery with equal durable state does not rejoin the fresh key")
	}
}
