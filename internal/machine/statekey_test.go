package machine

import (
	"strings"
	"testing"

	"tradingfences/internal/lang"
)

// key computes the binary state key of a configuration, failing the test
// on encoder errors.
func key(t *testing.T, c *Config) StateKey {
	t.Helper()
	k, err := c.StateKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// step advances one scheduler element, requiring that the step is taken.
func step(t *testing.T, c *Config, e Elem) {
	t.Helper()
	if _, took, err := c.Step(e); err != nil || !took {
		t.Fatalf("step %v: took=%v err=%v", e, took, err)
	}
}

func TestStateKeyHexRoundTrip(t *testing.T) {
	k := HashStateKey([]byte("some canonical state bytes"))
	s := k.String()
	if len(s) != 2*StateKeySize || s != strings.ToLower(s) {
		t.Fatalf("String() = %q, want %d lowercase hex digits", s, 2*StateKeySize)
	}
	back, err := ParseStateKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatalf("round trip drifted: %v != %v", back, k)
	}
	for _, bad := range []string{"", "abc", s[:30], s + "00", strings.Replace(s, s[:1], "g", 1)} {
		if _, err := ParseStateKey(bad); err == nil {
			t.Errorf("ParseStateKey(%q) accepted", bad)
		}
	}
}

// TestStateKeyOneMemoryCell: configurations identical except for a single
// memory cell get distinct keys.
func TestStateKeyOneMemoryCell(t *testing.T) {
	prog := func() *lang.Program {
		return lang.NewProgram("m", lang.Fence(), lang.Return(lang.I(0)))
	}
	c1, _ := mkConfig(t, PSO, prog())
	c2, _ := mkConfig(t, PSO, prog())
	if key(t, c1) != key(t, c2) {
		t.Fatal("identical fresh configurations key differently")
	}
	c2.SetRegister(100, 5)
	if key(t, c1) == key(t, c2) {
		t.Fatal("configurations differing in one memory cell collide")
	}
	c1.SetRegister(100, 4)
	if key(t, c1) == key(t, c2) {
		t.Fatal("configurations differing in one memory value collide")
	}
}

// TestStateKeyOneBufferEntry: same control state, same memory — a single
// differing write-buffer entry (by value or by register) must separate
// the keys, and a buffered write must never key like its committed form.
func TestStateKeyOneBufferEntry(t *testing.T) {
	mk := func(reg, val lang.Value) *Config {
		c, _ := mkConfig(t, PSO,
			lang.NewProgram("b", lang.Write(lang.I(reg), lang.I(val)), lang.Return(lang.I(0))))
		step(t, c, PBottom(0)) // buffer the write, do not commit
		return c
	}
	base := mk(100, 1)
	if k1, k2 := key(t, base), key(t, mk(100, 2)); k1 == k2 {
		t.Fatal("buffer entries differing in value collide")
	}
	if k1, k2 := key(t, base), key(t, mk(101, 1)); k1 == k2 {
		t.Fatal("buffer entries differing in register collide")
	}

	// Buffered vs committed: the same write on the two sides of a commit.
	committed := mk(100, 1)
	step(t, committed, PReg(0, 100))
	if committed.BufferLen(0) != 0 || committed.Register(100) != 1 {
		t.Fatal("test setup: commit did not drain the buffer")
	}
	if key(t, base) == key(t, committed) {
		t.Fatal("buffered and committed forms of the same write collide")
	}
}

// TestStateKeyOneControlLocation: two processes whose memory, locals and
// buffers agree but whose control locations differ key apart. Fence steps
// with an empty buffer touch nothing but the program counter (and the
// statistics, which the key deliberately excludes).
func TestStateKeyOneControlLocation(t *testing.T) {
	prog := func() *lang.Program {
		return lang.NewProgram("c", lang.Fence(), lang.Fence(), lang.Return(lang.I(0)))
	}
	c1, _ := mkConfig(t, SC, prog())
	c2, _ := mkConfig(t, SC, prog())
	step(t, c2, PBottom(0))
	if key(t, c1) == key(t, c2) {
		t.Fatal("configurations differing only in a control location collide")
	}
	step(t, c1, PBottom(0))
	if key(t, c1) != key(t, c2) {
		t.Fatal("identically-stepped twins key differently")
	}
}

// TestStateKeySettleInvariance: encoding settles every live process
// first, so a key taken before an explicit NextOp resolution equals the
// key taken after — control normalization is not observable in the key.
func TestStateKeySettleInvariance(t *testing.T) {
	prog := lang.NewProgram("s",
		lang.Write(lang.I(100), lang.I(1)),
		lang.While(lang.L("x"),
			lang.Read("x", lang.I(100)),
		),
		lang.Return(lang.I(0)),
	)
	c, _ := mkConfig(t, PSO, prog)
	step(t, c, PBottom(0)) // buffer the write; poised at the loop head
	before := key(t, c.Clone())
	for p := 0; p < c.N(); p++ {
		if !c.Halted(p) {
			if _, _, err := c.NextOp(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := key(t, c); after != before {
		t.Fatal("explicit settling changed the state key")
	}
}

// TestStateKeyCrossBuildStability: two independently constructed subjects
// over the same program text produce bit-identical keys along identical
// schedules — the property checkpointed visited sets rely on, and the one
// the legacy address-based string fingerprint violated.
func TestStateKeyCrossBuildStability(t *testing.T) {
	build := func() *Config {
		prog := lang.NewProgram("x",
			lang.Write(lang.I(100), lang.I(7)),
			lang.Fence(),
			lang.Read("v", lang.I(100)),
			lang.Return(lang.L("v")),
		)
		c, _ := mkConfig(t, PSO, prog)
		return c
	}
	c1, c2 := build(), build()
	for i := 0; i < 5; i++ {
		if k1, k2 := key(t, c1), key(t, c2); k1 != k2 {
			t.Fatalf("step %d: independently built configurations diverge: %v != %v", i, k1, k2)
		}
		if c1.AllHalted() {
			break
		}
		step(t, c1, PBottom(0))
		step(t, c2, PBottom(0))
	}
}

// FuzzStateKeyParse: any string either fails ParseStateKey or survives a
// String round trip bit for bit.
func FuzzStateKeyParse(f *testing.F) {
	f.Add(strings.Repeat("0", 32))
	f.Add(strings.Repeat("ff", 16))
	f.Add(HashStateKey([]byte("seed")).String())
	f.Add("not a key")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseStateKey(s)
		if err != nil {
			return
		}
		if len(s) != 2*StateKeySize {
			t.Fatalf("ParseStateKey accepted %d chars", len(s))
		}
		back, err := ParseStateKey(k.String())
		if err != nil || back != k {
			t.Fatalf("round trip drifted: %v, %v", back, err)
		}
	})
}

// FuzzHashStateKeyExtension: hashing is deterministic, round-trips
// through hex, and a one-byte extension of the encoding never collides
// (the hash folds in the input length, so a trailing zero byte must still
// move the key).
func FuzzHashStateKeyExtension(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("state bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		k := HashStateKey(data)
		if k != HashStateKey(data) {
			t.Fatal("hash not deterministic")
		}
		if back, err := ParseStateKey(k.String()); err != nil || back != k {
			t.Fatalf("hex round trip drifted: %v, %v", back, err)
		}
		if HashStateKey(append(data, 0)) == k {
			t.Fatal("prefix extension collided")
		}
	})
}
