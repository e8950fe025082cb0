package machine

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"tradingfences/internal/murmur"
)

// StateKeyCodecVersion identifies the binary state encoding below. It is
// certified into checkpoint snapshots: visited-state keys minted by one
// codec version never prune an exploration running another. The
// component-sum key hashes the same bytes a component at a time, so it
// left the codec at 1; the checkpoint version certifies how keys are
// hashed.
const StateKeyCodecVersion = 1

// StateKeySize is the fixed byte size of a StateKey. Budget metering
// charges exactly this many bytes per visited state (plus the fixed
// bookkeeping overhead), replacing the old string-length heuristic.
const StateKeySize = 16

// StateKey is a configuration's fixed-size 128-bit key: the sum of the
// hashes of its components (Config.StateKey, keysum.go), or the hash of a
// symmetry-canonical state encoding (HashStateKey). Unlike the legacy
// string fingerprint — whose program points were backing-array addresses,
// canonical only within one OS process — state keys are stable across
// runs and builds, so checkpointed visited sets transfer between
// processes.
type StateKey [StateKeySize]byte

// String returns the key as 32 lowercase hex digits (fixed width, so
// byte-wise and lexicographic orders agree — checkpoint shards rely on
// this for stable serialization).
func (k StateKey) String() string { return hex.EncodeToString(k[:]) }

// ParseStateKey decodes the fixed-width hex form produced by String.
func ParseStateKey(s string) (StateKey, error) {
	var k StateKey
	if len(s) != 2*StateKeySize {
		return k, fmt.Errorf("machine: state key %q is not %d hex digits", s, 2*StateKeySize)
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return k, fmt.Errorf("machine: bad state key %q: %w", s, err)
	}
	return k, nil
}

// HashStateKey hashes a canonical state encoding to its fixed-size key:
// MurmurHash3 x64_128 with seed 0 (murmur.Sum128). The key holds the two
// 64-bit halves little-endian, h1 first — the reference implementation's
// byte order. It keys symmetry-reduced states, whose canonical bytes
// cannot be summed component by component, and hashes every component of
// an unreduced key (see keysum.go). DESIGN.md §5d gives the collision
// bound.
func HashStateKey(b []byte) StateKey {
	h1, h2 := murmur.Sum128(b)
	return hash128{h1, h2}.key()
}

// KeyEncoder encodes configurations into canonical state-key bytes using
// reusable scratch storage. Use one encoder per worker goroutine; an
// encoder is not safe for concurrent use.
type KeyEncoder struct {
	ws []Write // write-buffer / renamed-memory scratch
	as []uint8 // reorder-age scratch, parallel to ws (reorder-bounded runs)
}

// AppendStateBytes appends the canonical binary encoding of the
// configuration's behavioural state — memory contents, every process's
// control state and locals, and every write buffer in semantic order —
// to buf and returns the extended slice. It is the reference encoding:
// symmetry canonicalization ranks it, and the component-sum key hashes
// the same fields one component at a time. The encoding is injective:
// two configurations encode equal iff the legacy string fingerprint
// partition considers them equal. Cost-accounting state (knowledge
// caches, last-committer table, statistics) is deliberately excluded, and
// all processes are settled first, exactly as in Config.Fingerprint.
func (e *KeyEncoder) AppendStateBytes(c *Config, buf []byte) ([]byte, error) {
	return e.append(c, buf, nil)
}

func (e *KeyEncoder) append(c *Config, buf []byte, ren *renamer) ([]byte, error) {
	for p := 0; p < c.n; p++ {
		if !c.procs[p].Halted() {
			if _, _, err := c.procs[p].NextOp(); err != nil {
				return nil, err
			}
		}
	}
	// Memory: non-zero registers as count-prefixed (reg, value) pairs in
	// ascending renamed-register order. mem is dense over the layout, so
	// this is a contiguous walk; registers allocated after the
	// configuration was built (memAt covers them) are all zero.
	size := Reg(c.lay.Size())
	if ren == nil {
		nz := 0
		for r := Reg(0); r < size; r++ {
			if c.memAt(r) != 0 {
				nz++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(nz))
		for r := Reg(0); r < size; r++ {
			if v := c.memAt(r); v != 0 {
				buf = binary.AppendUvarint(buf, uint64(r))
				buf = binary.AppendVarint(buf, v)
			}
		}
	} else {
		e.ws = e.ws[:0]
		for r := Reg(0); r < size; r++ {
			if v := c.memAt(r); v != 0 {
				e.ws = append(e.ws, Write{Reg: ren.reg(r), Val: ren.val(r, v)})
			}
		}
		sortWrites(e.ws)
		buf = binary.AppendUvarint(buf, uint64(len(e.ws)))
		for _, w := range e.ws {
			buf = binary.AppendUvarint(buf, uint64(w.Reg))
			buf = binary.AppendVarint(buf, w.Val)
		}
	}
	// Processes and their write buffers. Under a renaming π, slot j
	// carries process π⁻¹(j)'s state with PID-typed data renamed.
	for j := 0; j < c.n; j++ {
		p := j
		var localFn func(int, Value) Value
		if ren != nil {
			p = ren.inv[j]
			localFn = ren.localFn(c.procs[p].Program())
		}
		buf = c.procs[p].AppendStateKey(buf, localFn)

		e.ws = e.ws[:0]
		e.ws = c.wbs[p].appendEntries(e.ws)
		bounded := c.reorderBound > 0
		if bounded {
			// Reorder ages gate enabledness, so they are part of the
			// behavioural state whenever a bound is active. Capture them by
			// the entry's original register before any renaming.
			e.as = e.as[:0]
			row := c.wbAges[p*c.cacheStride:]
			for _, w := range e.ws {
				e.as = append(e.as, row[w.Reg])
			}
		}
		if ren != nil {
			for i := range e.ws {
				r := e.ws[i].Reg
				e.ws[i] = Write{Reg: ren.reg(r), Val: ren.val(r, e.ws[i].Val)}
			}
			if c.model != TSO {
				// PSO semantic order is ascending register, which the
				// renaming may permute; TSO queue order is preserved.
				if bounded {
					sortWritesAges(e.ws, e.as)
				} else {
					sortWrites(e.ws)
				}
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.ws)))
		for i, w := range e.ws {
			buf = binary.AppendUvarint(buf, uint64(w.Reg))
			buf = binary.AppendVarint(buf, w.Val)
			if bounded {
				buf = append(buf, e.as[i])
			}
		}
	}
	return buf, nil
}

// AppendStateBytes is the convenience form of KeyEncoder.AppendStateBytes
// for one-shot callers (tests, trace inspection); hot loops should hold a
// KeyEncoder to reuse its scratch storage.
func (c *Config) AppendStateBytes(buf []byte) ([]byte, error) {
	var e KeyEncoder
	return e.AppendStateBytes(c, buf)
}

// sortWrites sorts by register, in place, without allocating (the slices
// are write buffers and memory snapshots: a handful of entries).
func sortWrites(ws []Write) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Reg < ws[j-1].Reg; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// sortWritesAges is sortWrites with a parallel reorder-age slice kept in
// lockstep, for reorder-bounded encodings under a symmetry renaming.
func sortWritesAges(ws []Write, as []uint8) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Reg < ws[j-1].Reg; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}
