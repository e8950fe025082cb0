package lang

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wideProgram binds 70 locals v00..v69 (slots 0..69, past one bitset
// word) to 1..70 — except v65, which only a nonzero pid binds, to 0 — and
// then reads into zz (slot 70). Recovery keeps v66 and re-reads zz.
func wideProgram() *Program {
	var body []Stmt
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("v%02d", i)
		if i == 65 {
			body = append(body, If(Ne(PID(), I(0)), Assign(name, I(0))))
			continue
		}
		body = append(body, Assign(name, I(Value(i+1))))
	}
	body = append(body, Read("zz", I(7)), Return(L("v69")))
	p := NewProgram("wide", body...)
	p.Recovery = []Stmt{Read("zz", I(8))}
	p.ResumeAt = len(body) - 1
	p.Durable = []string{"v66"}
	return p
}

// settled returns process pid's state at its first shared operation.
func settled(t *testing.T, p *Program, pid int) *ProcState {
	t.Helper()
	s := NewProcState(p, pid, 2)
	if op, ok, err := s.NextOp(); err != nil || !ok || op.Kind != OpRead {
		t.Fatalf("pid %d: NextOp = %v %v %v, want a read", pid, op, ok, err)
	}
	return s
}

// TestLocalsBeyondOneBitsetWord: slots at and past 64 read, key and
// survive a crash like the first 64. The bound bitset is not capped at one
// word (GT_f at n=256 already binds 56 locals).
func TestLocalsBeyondOneBitsetWord(t *testing.T) {
	p := wideProgram()
	if got := len(p.index().localNames); got != 71 {
		t.Fatalf("%d locals, want 71", got)
	}
	unbound, bound := settled(t, p, 0), settled(t, p, 1)
	for _, s := range []*ProcState{unbound, bound} {
		if got := s.Local("v69"); got != 70 {
			t.Errorf("pid %d: Local(v69) = %d, want 70", s.PID(), got)
		}
		if got := s.Local("v65"); got != 0 {
			t.Errorf("pid %d: Local(v65) = %d, want 0", s.PID(), got)
		}
	}

	// The key spells out the bound locals as (slot, value) pairs in slot
	// order after the one frame (block 1, cursor at the read, no loop):
	// an unbound slot 65 is skipped, a slot 65 bound to 0 is encoded.
	want := func(with65 bool) string {
		b := []byte{stateTagLive}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 70)
		b = binary.AppendUvarint(b, 0)
		n := 69
		if with65 {
			n = 70
		}
		b = binary.AppendUvarint(b, uint64(n))
		for i := 0; i < 70; i++ {
			switch {
			case i == 65 && with65:
				b = binary.AppendUvarint(b, uint64(i))
				b = binary.AppendVarint(b, 0)
			case i != 65:
				b = binary.AppendUvarint(b, uint64(i))
				b = binary.AppendVarint(b, Value(i+1))
			}
		}
		return string(b)
	}
	if got := string(unbound.AppendStateKey(nil)); got != want(false) {
		t.Errorf("unbound slot 65: key %x, want %x", got, want(false))
	}
	if got := string(bound.AppendStateKey(nil)); got != want(true) {
		t.Errorf("slot 65 bound to 0: key %x, want %x", got, want(true))
	}

	// A crash keeps the durable local at slot 66 and drops the rest.
	if err := bound.CompleteRead(9); err != nil {
		t.Fatal(err)
	}
	ns := bound.CrashRestart(nil)
	if _, _, err := ns.NextOp(); err != nil {
		t.Fatal(err)
	}
	if got := ns.Local("v66"); got != 67 {
		t.Errorf("durable v66 after crash = %d, want 67", got)
	}
	if got := ns.Local("v69"); got != 0 {
		t.Errorf("volatile v69 after crash = %d, want 0", got)
	}
	key := ns.AppendStateKey(nil)
	tail := binary.AppendUvarint(nil, 1)  // one bound local...
	tail = binary.AppendUvarint(tail, 66) // ...in slot 66...
	tail = binary.AppendVarint(tail, 67)  // ...holding 67.
	if len(key) < len(tail) || string(key[len(key)-len(tail):]) != string(tail) {
		t.Errorf("post-crash key %x does not end with the lone durable local %x", key, tail)
	}
}

// TestConcurrentCompile: goroutines that build programs (interning their
// local names) and race to compile one shared program agree on every
// process's key. Run under -race.
func TestConcurrentCompile(t *testing.T) {
	shared := wideProgram()
	want := string(settled(t, wideProgram(), 1).AppendStateKey(nil))
	const workers = 8
	keys := make(chan string, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range []*Program{shared, wideProgram()} {
				s := NewProcState(p, 1, 2)
				if _, _, err := s.NextOp(); err != nil {
					t.Error(err)
					return
				}
				keys <- string(s.AppendStateKey(nil))
			}
		}()
	}
	wg.Wait()
	close(keys)
	for k := range keys {
		if k != want {
			t.Fatalf("key %x, want %x", k, want)
		}
	}
}

// TestCompiledProgramIsCollectable: a program's code index lives in the
// program, so a program nothing references any more is collected with its
// index. A daemon builds fresh programs for every job; a process-wide
// index cache would keep each one forever.
func TestCompiledProgramIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		p := NewProgram("gone", Assign("x", I(1)), Read("y", L("x")), Return(L("y")))
		s := NewProcState(p, 0, 1)
		if _, _, err := s.NextOp(); err != nil {
			t.Fatal(err)
		}
		_ = s.AppendStateKey(nil)
		runtime.SetFinalizer(p, func(*Program) { close(freed) })
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a compiled program was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
