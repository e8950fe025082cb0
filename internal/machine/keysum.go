package machine

import (
	"encoding/binary"

	"tradingfences/internal/murmur"
)

// Component-sum state keys. A configuration's StateKey is the sum, taken
// mod 2^64 in each 64-bit half, of the 128-bit hashes of its components:
//
//   - one per non-zero register r holding v: the hash of keyTagMem,
//     uvarint(r), varint(v);
//   - one per process p: the hash of keyTagProc, uvarint(p) and p's
//     settled lang.ProcState.AppendStateKey segment;
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
// setMem, the one writer of shared memory. Every process and buffer
// component lives in the configuration's key cache (keyParts) beside
// their running sum, and a step marks stale only the components it
// touched (touch). Keying a visited state re-hashes just those; an undo
// record keeps the stepping process's two components and the stale mark
// as the step found them, so Revert puts them back and the parent state
// needs no hashing at all. The cache starts wholly stale — after
// NewConfig, Clone and SetReorderBound, or once steps of two processes
// were taken without a key between them — and the next key then hashes
// every component.

// Component tags: the first byte of every component's hash input.
const (
	keyTagMem  = 0x01
	keyTagBuf  = 0x02
	keyTagProc = 0x03
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

// keyMark says which components of the key cache may be out of date: p
// is the one process whose components may be stale, and what says which
// of them (partProc, partBuf or both). p is noneStale when every cached
// component is current and allStale when none may be trusted.
type keyMark struct {
	p    int32
	what uint8
}

const (
	noneStale = -1
	allStale  = -2

	partProc uint8 = 1 << 0
	partBuf  uint8 = 1 << 1
)

// touch marks the components in what of process p stale. A step touches
// one process's components; when another process's are already stale —
// a replay of several steps with no key between them — the whole cache
// goes stale.
func (c *Config) touch(p int, what uint8) {
	switch c.keyMark.p {
	case int32(p):
		c.keyMark.what |= what
	case noneStale:
		c.keyMark = keyMark{p: int32(p), what: what}
	default:
		c.keyMark.p = allStale
	}
}

// setPart replaces cached component i and keeps partSum their sum.
func (c *Config) setPart(i int, h hash128) {
	c.partSum = c.partSum.sub(c.keyParts[i]).add(h)
	c.keyParts[i] = h
}

// procPart hashes process p's component, settling the process first.
func (c *Config) procPart(p int) (hash128, error) {
	ps := c.procs[p]
	if !ps.Halted() {
		if _, _, err := ps.NextOp(); err != nil {
			return hash128{}, err
		}
	}
	b := append(c.keyBuf[:0], keyTagProc)
	b = binary.AppendUvarint(b, uint64(p))
	c.keyBuf = ps.AppendStateKey(b)
	return sum128(c.keyBuf), nil
}

// bufferPart hashes process p's buffer component (zero for an empty
// buffer).
func (c *Config) bufferPart(p int) hash128 {
	b := c.wbs[p]
	n := b.len()
	if n == 0 {
		return hash128{}
	}
	buf := append(c.keyBuf[:0], keyTagBuf)
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
	c.keyBuf = buf
	return sum128(buf)
}

// refreshPart re-hashes process p's stale components among what.
func (c *Config) refreshPart(p int, what uint8) error {
	if what&partProc != 0 {
		h, err := c.procPart(p)
		if err != nil {
			return err
		}
		c.setPart(2*p, h)
	}
	if what&partBuf != 0 {
		c.setPart(2*p+1, c.bufferPart(p))
	}
	return nil
}

// StateKey returns the configuration's state key: the sum of its
// component hashes. Only the components the key cache marks stale are
// hashed again, their processes settled first as AppendStateBytes
// settles them; a process whose component is current is settled already.
func (c *Config) StateKey() (StateKey, error) {
	switch m := c.keyMark; {
	case m.p == allStale:
		for p := 0; p < c.n; p++ {
			if err := c.refreshPart(p, partProc|partBuf); err != nil {
				return StateKey{}, err
			}
		}
	case m.p >= 0:
		if err := c.refreshPart(int(m.p), m.what); err != nil {
			return StateKey{}, err
		}
	}
	c.keyMark = keyMark{p: noneStale}
	return c.memoryKey().add(c.partSum).key(), nil
}
