package machine

import (
	"encoding/binary"

	"tradingfences/internal/lang"
	"tradingfences/internal/murmur"
)

// Component-sum state keys. A configuration's StateKey is the sum, taken
// mod 2^64 in each 64-bit half, of the 128-bit hashes of its components:
//
//   - one per non-zero register r holding v: the hash of keyTagMem,
//     uvarint(r), varint(v);
//   - one per process p: the hash of lang.KeyTagProc, uvarint(p) and p's
//     key segment (lang.ProcState.KeyHash);
//   - one per non-empty write buffer of process p: the hash of keyTagBuf,
//     uvarint(p) and the buffer's entries as AppendStateBytes encodes
//     them (reorder ages included while a bound is active).
//
// A zero register and an empty buffer contribute nothing. Every hash
// input opens with its kind's tag and its position, so a state maps to
// one set of distinct inputs and two distinct states map to different
// sets; under a random-oracle model of the hash their sums then collide
// with probability 2^-128 (DESIGN.md §5d).
//
// A step changes one process, at most one register and at most one
// buffer, so keys are kept incrementally. The memory sum is updated by
// setMem, the one writer of shared memory; each process caches its
// component beside its key segment; each write buffer caches its own and
// drops it on every mutation. Keying a visited state then settles the
// processes, re-hashes only the dirty components and adds 2n+1 values.
// Clone drops every cache, so the key of a clone is computed from scratch.

// Component tags: the first byte of every component's hash input.
const (
	keyTagMem  = 0x01
	keyTagBuf  = 0x02
	keyTagProc = lang.KeyTagProc
	// KeyTagCrashes tags the spent crash budget folded into a key (see
	// StateKey.Fold).
	KeyTagCrashes = 0x04
	// KeyTagMonitor tags a path monitor's state folded into a key.
	KeyTagMonitor = 0x05
)

// hash128 is a 128-bit component hash, or a sum of them, as its two
// 64-bit halves.
type hash128 [2]uint64

func (a hash128) add(b hash128) hash128 { return hash128{a[0] + b[0], a[1] + b[1]} }
func (a hash128) sub(b hash128) hash128 { return hash128{a[0] - b[0], a[1] - b[1]} }

// key stores the halves little-endian, h1 first.
func (a hash128) key() StateKey {
	var k StateKey
	binary.LittleEndian.PutUint64(k[:8], a[0])
	binary.LittleEndian.PutUint64(k[8:], a[1])
	return k
}

func (k StateKey) sum() hash128 {
	return hash128{binary.LittleEndian.Uint64(k[:8]), binary.LittleEndian.Uint64(k[8:])}
}

func sum128(b []byte) hash128 {
	h1, h2 := murmur.Sum128(b)
	return hash128{h1, h2}
}

// Fold returns k plus one more component: the hash of tag and uvarint(v).
// Checkers fold run state that is not part of the configuration into its
// key this way: the spent crash budget (KeyTagCrashes) and a path
// monitor's state (KeyTagMonitor).
func (k StateKey) Fold(tag byte, v uint64) StateKey {
	var b [1 + binary.MaxVarintLen64]byte
	b[0] = tag
	n := 1 + binary.PutUvarint(b[1:], v)
	return k.sum().add(sum128(b[:n])).key()
}

// memComponent is the key component of register r holding v != 0.
func memComponent(r Reg, v Value) hash128 {
	var b [1 + 2*binary.MaxVarintLen64]byte
	b[0] = keyTagMem
	n := 1 + binary.PutUvarint(b[1:], uint64(r))
	n += binary.PutVarint(b[n:], v)
	return sum128(b[:n])
}

// setMem writes shared memory. Every write goes through it — commits, SC
// writes, test-and-set, SetRegister and Revert — so the memory sum stays
// current. r must be inside the dense tables.
func (c *Config) setMem(r Reg, v Value) {
	old := c.mem[r]
	c.mem[r] = v
	if !c.memSumOK || old == v {
		return
	}
	if old != 0 {
		c.memSum = c.memSum.sub(memComponent(r, old))
	}
	if v != 0 {
		c.memSum = c.memSum.add(memComponent(r, v))
	}
}

// memoryKey returns the sum of the register components, summing every
// register when the configuration has no current sum (a clone).
func (c *Config) memoryKey() hash128 {
	if !c.memSumOK {
		var s hash128
		for r, v := range c.mem {
			if v != 0 {
				s = s.add(memComponent(Reg(r), v))
			}
		}
		c.memSum, c.memSumOK = s, true
	}
	return c.memSum
}

// bufferKey returns process p's buffer component, from the buffer's cache
// when it is current.
func (c *Config) bufferKey(p int) hash128 {
	b := c.wbs[p]
	n := b.len()
	if n == 0 {
		return hash128{}
	}
	if h, ok := b.cachedKey(); ok {
		return h
	}
	var scratch [128]byte // holds a few entries without allocating
	buf := append(scratch[:0], keyTagBuf)
	buf = binary.AppendUvarint(buf, uint64(p))
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		w := b.at(i)
		buf = binary.AppendUvarint(buf, uint64(w.Reg))
		buf = binary.AppendVarint(buf, w.Val)
		if c.reorderBound > 0 {
			buf = append(buf, c.wbAges[p*c.cacheStride+int(w.Reg)])
		}
	}
	h := sum128(buf)
	b.setCachedKey(h)
	return h
}

// StateKey returns the configuration's state key: the sum of its
// component hashes. Processes are settled first, as AppendStateBytes
// settles them.
func (c *Config) StateKey() (StateKey, error) {
	s := c.memoryKey()
	for p, ps := range c.procs {
		if !ps.Halted() {
			if _, _, err := ps.NextOp(); err != nil {
				return StateKey{}, err
			}
		}
		h1, h2 := ps.KeyHash()
		s = s.add(hash128{h1, h2}).add(c.bufferKey(p))
	}
	return s.key(), nil
}
