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
// hashes of its components (Config.StateKey, keysum.go). Unlike the legacy
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
// byte order. It hashes every component of a state key (see keysum.go);
// DESIGN.md §5d gives the collision bound.
func HashStateKey(b []byte) StateKey {
	h1, h2 := murmur.Sum128(b)
	return hash128{h1, h2}.key()
}

// KeyEncoder encodes configurations into canonical state-key bytes using
// reusable scratch storage. Use one encoder per goroutine; an encoder is
// not safe for concurrent use.
type KeyEncoder struct {
	ws []Write // write-buffer scratch
}

// AppendStateBytes appends the canonical binary encoding of the
// configuration's behavioural state — memory contents, every process's
// control state and locals, and every write buffer in semantic order —
// to buf and returns the extended slice. It is the reference encoding:
// the component-sum key hashes the same fields one component at a time.
// The encoding is injective: two configurations encode equal iff the
// legacy string fingerprint partition considers them equal. Cost-
// accounting state (knowledge caches, last-committer table, statistics)
// is deliberately excluded, and all processes are settled first, exactly
// as in Config.Fingerprint.
func (e *KeyEncoder) AppendStateBytes(c *Config, buf []byte) ([]byte, error) {
	for p := 0; p < c.n; p++ {
		if !c.procs[p].Halted() {
			if _, _, err := c.procs[p].NextOp(); err != nil {
				return nil, err
			}
		}
	}
	// Memory: non-zero registers as count-prefixed (reg, value) pairs in
	// ascending register order. mem is dense over the layout, so this is
	// a contiguous walk; registers allocated after the configuration was
	// built (memAt covers them) are all zero.
	size := Reg(c.lay.Size())
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
	// Processes and their write buffers.
	for p := 0; p < c.n; p++ {
		buf = c.procs[p].AppendStateKey(buf)
		e.ws = c.wbs[p].appendEntries(e.ws[:0])
		buf = binary.AppendUvarint(buf, uint64(len(e.ws)))
		for _, w := range e.ws {
			buf = binary.AppendUvarint(buf, uint64(w.Reg))
			buf = binary.AppendVarint(buf, w.Val)
			if c.reorderBound > 0 {
				// Reorder ages gate enabledness, so they are part of the
				// behavioural state whenever a bound is active.
				buf = append(buf, c.wbAges[p*c.cacheStride+int(w.Reg)])
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
