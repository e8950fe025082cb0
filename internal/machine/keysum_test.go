package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"tradingfences/internal/lang"
)

// invalidateKeyCache marks every cached key component stale, for tests
// that rearrange a configuration's state behind the step rules' back.
func (c *Config) invalidateKeyCache() { c.keyMark = keyMark{p: allStale} }

// referenceKey computes the state key from its definition in keysum.go,
// without any cache: the hashes of the tagged, positioned component
// inputs, summed per 64-bit half. The processes are settled on clones, so
// keying leaves c untouched.
func referenceKey(t *testing.T, c *Config) StateKey {
	t.Helper()
	var s hash128
	add := func(b []byte) { s = s.add(HashStateKey(b).sum()) }
	for r, v := range c.mem {
		if v != 0 {
			b := binary.AppendUvarint([]byte{keyTagMem}, uint64(r))
			add(binary.AppendVarint(b, v))
		}
	}
	for p := 0; p < c.n; p++ {
		ps := c.procs[p].Clone()
		if !ps.Halted() {
			if _, _, err := ps.NextOp(); err != nil {
				t.Fatal(err)
			}
		}
		b := binary.AppendUvarint([]byte{keyTagProc}, uint64(p))
		add(ps.AppendStateKey(b))
		ws := c.wbs[p].entries()
		if len(ws) == 0 {
			continue
		}
		b = binary.AppendUvarint([]byte{keyTagBuf}, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(ws)))
		for _, w := range ws {
			b = binary.AppendUvarint(b, uint64(w.Reg))
			b = binary.AppendVarint(b, w.Val)
			if c.reorderBound > 0 {
				b = append(b, c.wbAges[p*c.cacheStride+int(w.Reg)])
			}
		}
		add(b)
	}
	return s.key()
}

// TestStateKeyIsComponentSum: along random schedules with crashes under
// every model, with and without a reorder bound, Config.StateKey equals
// the component sum computed from its definition.
func TestStateKeyIsComponentSum(t *testing.T) {
	for _, model := range undoModels {
		for _, bound := range undoBounds {
			t.Run(fmt.Sprintf("%v/bound=%d", model, bound), func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				c, _ := mkConfig(t, model, recycleProgs()...)
				c.SetFaultPlan(&FaultPlan{MaxCrashes: 8})
				c.SetReorderBound(bound)
				for i, e := range undoElems(rng, 3, 200, 121) {
					if _, _, err := c.Step(e); err != nil {
						t.Fatal(err)
					}
					if got, want := key(t, c), referenceKey(t, c); got != want {
						t.Fatalf("elem %d (%v): key %v, component sum %v", i, e, got, want)
					}
				}
			})
		}
	}
}

// TestStateKeyPositions: every component's hash input carries its
// position, so swapping two registers' values, or two processes'
// buffered writes, changes the key.
func TestStateKeyPositions(t *testing.T) {
	prog := func() *lang.Program {
		return lang.NewProgram("w",
			lang.Write(lang.Add(lang.I(100), lang.PID()), lang.Add(lang.I(7), lang.PID())),
			lang.Return(lang.I(0)))
	}
	a, _ := mkConfig(t, PSO, prog(), prog())
	b, _ := mkConfig(t, PSO, prog(), prog())
	a.SetRegister(101, 5)
	a.SetRegister(102, 9)
	b.SetRegister(101, 9)
	b.SetRegister(102, 5)
	if key(t, a) == key(t, b) {
		t.Fatal("swapping two registers' values kept the key")
	}
	// p0 buffers (100, 7) and p1 buffers (101, 8); then swap which process
	// holds which buffer while each stays poised at its return.
	c, _ := mkConfig(t, PSO, prog(), prog())
	step(t, c, PBottom(0))
	step(t, c, PBottom(1))
	k := key(t, c)
	c.wbs[0], c.wbs[1] = c.wbs[1], c.wbs[0]
	c.invalidateKeyCache()
	if key(t, c) == k {
		t.Fatal("swapping two processes' buffers kept the key")
	}
}

// TestStateKeyFold: a folded component changes the key, and its tag and
// value both count.
func TestStateKeyFold(t *testing.T) {
	c, _ := mkConfig(t, PSO, incProgram())
	k := key(t, c)
	seen := map[StateKey]string{k: "unfolded"}
	for _, tag := range []byte{KeyTagCrashes, KeyTagMonitor} {
		for _, v := range []uint64{0, 1, 1 << 40} {
			f := k.Fold(tag, v)
			what := fmt.Sprintf("tag %d value %d", tag, v)
			if prev, dup := seen[f]; dup {
				t.Fatalf("%s folds to the key of %s", what, prev)
			}
			seen[f] = what
		}
	}
}
