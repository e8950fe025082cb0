package machine

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
	"unsafe"
)

// VisitedShards is the fixed shard count of a VisitedSet. Keys are routed
// by their leading hash byte, so the partition is a property of the key
// alone — independent of the worker count that discovered the state — and
// checkpoint serializations stay stable across pool sizes. 64 shards keep
// the per-shard mutexes effectively uncontended at any worker count a
// single machine can field.
const VisitedShards = 64

// visitedShardSlots is a shard's table size when the set is created. A
// table doubles when an insert takes it past 3/4 load, so a grown table
// is between 3/8 and 3/4 full: at most 16/(3/8) ≈ 43 bytes per key.
const visitedShardSlots = 64

// VisitedSet is a sharded concurrent set of StateKeys: the visited set of
// the work-stealing explorer. Each shard is an independently locked
// open-addressing table; a key's shard is derived from its bytes (see
// VisitedShards), so concurrent workers contend only when their keys
// collide on a shard.
//
// A StateKey is already a uniform 128-bit hash, so a table probes from a
// multiply-shift of the key's own two words rather than hashing it again.
// Probing is linear, and Remove shifts the rest of the probe chain back
// instead of leaving a tombstone. The all-zero key marks a free slot, so
// the set records that key in a flag of its shard instead.
type VisitedSet struct {
	shards [VisitedShards]visitedShard
}

type visitedShard struct {
	mu    sync.Mutex
	slots []StateKey // power-of-two table; the zero key marks a free slot
	used  int        // occupied slots
	zero  bool       // the all-zero key is in the set
	// Pad the shard to one 64-byte cache line so neighboring shard
	// mutexes do not false-share. TestVisitedShardFillsCacheLine pins the
	// size.
	_ [64 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([]StateKey(nil)) -
		unsafe.Sizeof(int(0)) - unsafe.Sizeof(false)]byte
}

// NewVisitedSet returns an empty set.
func NewVisitedSet() *VisitedSet {
	v := &VisitedSet{}
	for i := range v.shards {
		v.shards[i].slots = make([]StateKey, visitedShardSlots)
	}
	return v
}

// shardOf routes a key by its leading hash byte — uniform because StateKey
// is itself a hash.
func (v *VisitedSet) shardOf(key StateKey) *visitedShard {
	return &v.shards[int(key[0])%VisitedShards]
}

// homeSlot is the key's first probe position in a table of n slots (a
// power of two): the top bits of the product of both key words, XORed,
// with an odd constant (2^64 divided by the golden ratio).
func homeSlot(key StateKey, n int) int {
	w := binary.LittleEndian.Uint64(key[:8]) ^ binary.LittleEndian.Uint64(key[8:])
	return int((w * 0x9e3779b97f4a7c15) >> (bits.LeadingZeros64(uint64(n)) + 1))
}

// TryVisit inserts the key and reports whether it was absent (true = this
// caller interned the state; false = already visited). The fused
// lookup+insert takes the shard lock once.
func (v *VisitedSet) TryVisit(key StateKey) bool {
	sh := v.shardOf(key)
	sh.mu.Lock()
	fresh := sh.insert(key)
	sh.mu.Unlock()
	return fresh
}

// Has reports membership without inserting.
func (v *VisitedSet) Has(key StateKey) bool {
	sh := v.shardOf(key)
	sh.mu.Lock()
	ok := sh.zero
	if key != (StateKey{}) {
		_, ok = sh.find(key)
	}
	sh.mu.Unlock()
	return ok
}

// Remove deletes a key (no-op when absent). The explorer uses it to roll
// back an interning whose budget charge failed, keeping the interned count
// at exactly the budget cap — the same trip point a one-worker run
// reports.
func (v *VisitedSet) Remove(key StateKey) {
	sh := v.shardOf(key)
	sh.mu.Lock()
	sh.remove(key)
	sh.mu.Unlock()
}

// Size returns the number of keys in the set. Safe to call concurrently
// with mutation, but the shards are counted one at a time, so the sum is
// exact only when the set is quiescent.
func (v *VisitedSet) Size() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		n += sh.used
		if sh.zero {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Dump returns the shard contents as fixed-width hex strings in
// deterministic order (shard-major, keys sorted within each shard) — the
// stable serialization the checkpoint CRC requires. The caller must
// guarantee quiescence (the explorer dumps only at checkpoint barriers).
func (v *VisitedSet) Dump() [][]string {
	out := make([][]string, VisitedShards)
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		keys := make([]string, 0, sh.used+1)
		if sh.zero {
			keys = append(keys, StateKey{}.String())
		}
		for _, k := range sh.slots {
			if k != (StateKey{}) {
				keys = append(keys, k.String())
			}
		}
		sh.mu.Unlock()
		sort.Strings(keys)
		out[i] = keys
	}
	return out
}

// find returns the slot holding a non-zero key, or the free slot that ends
// its probe chain and false.
func (sh *visitedShard) find(key StateKey) (int, bool) {
	mask := len(sh.slots) - 1
	for i := homeSlot(key, len(sh.slots)); ; i = (i + 1) & mask {
		switch sh.slots[i] {
		case key:
			return i, true
		case StateKey{}:
			return i, false
		}
	}
}

// insert adds the key, reporting whether it was absent. Caller holds mu.
func (sh *visitedShard) insert(key StateKey) bool {
	if key == (StateKey{}) {
		fresh := !sh.zero
		sh.zero = true
		return fresh
	}
	i, ok := sh.find(key)
	if ok {
		return false
	}
	sh.slots[i] = key
	sh.used++
	if 4*sh.used > 3*len(sh.slots) {
		sh.grow()
	}
	return true
}

// grow doubles the table and re-places every key.
func (sh *visitedShard) grow() {
	old := sh.slots
	sh.slots = make([]StateKey, 2*len(old))
	for _, k := range old {
		if k != (StateKey{}) {
			i, _ := sh.find(k)
			sh.slots[i] = k
		}
	}
}

// remove deletes the key by backward-shift deletion: each later key of the
// probe chain that may legally sit in the hole moves into it, so lookups
// never need tombstones. Caller holds mu.
func (sh *visitedShard) remove(key StateKey) {
	if key == (StateKey{}) {
		sh.zero = false
		return
	}
	hole, ok := sh.find(key)
	if !ok {
		return
	}
	mask := len(sh.slots) - 1
	for j := (hole + 1) & mask; sh.slots[j] != (StateKey{}); j = (j + 1) & mask {
		// The key at j may move back to the hole unless its home lies
		// cyclically in (hole, j]: then the hole is before its home.
		h := homeSlot(sh.slots[j], len(sh.slots))
		if (j-h)&mask >= (j-hole)&mask {
			sh.slots[hole] = sh.slots[j]
			hole = j
		}
	}
	sh.slots[hole] = StateKey{}
	sh.used--
}
