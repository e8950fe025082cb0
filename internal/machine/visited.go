package machine

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// VisitedShards is the fixed shard count of a VisitedSet. Keys are routed
// by their leading hash byte, so the partition is a property of the key
// alone — independent of the worker count that discovered the state — and
// checkpoint serializations stay stable across pool sizes. 64 shards keep
// the per-shard mutexes effectively uncontended at any worker count a
// single machine can field.
const VisitedShards = 64

// VisitedSet is a sharded concurrent set of StateKeys: the visited set of
// the work-stealing parallel explorer. Each shard is an independently
// locked map; a key's shard is derived from its bytes (see VisitedShards),
// so concurrent workers contend only when their keys collide on a shard.
type VisitedSet struct {
	shards [VisitedShards]visitedShard
	count  atomic.Int64
}

type visitedShard struct {
	mu sync.Mutex
	m  map[StateKey]struct{}
	// Pad the shard to one 64-byte cache line so neighboring shard
	// mutexes do not false-share (a map value is one pointer word).
	// TestVisitedShardFillsCacheLine pins the size.
	_ [64 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof(uintptr(0))]byte
}

// NewVisitedSet returns an empty set.
func NewVisitedSet() *VisitedSet {
	v := &VisitedSet{}
	for i := range v.shards {
		v.shards[i].m = make(map[StateKey]struct{}, 64)
	}
	return v
}

// shardOf routes a key by its leading hash byte — uniform because StateKey
// is itself a hash.
func (v *VisitedSet) shardOf(key StateKey) *visitedShard {
	return &v.shards[int(key[0])%VisitedShards]
}

// TryVisit inserts the key and reports whether it was absent (true = this
// caller interned the state; false = already visited). The fused
// lookup+insert takes the shard lock once.
func (v *VisitedSet) TryVisit(key StateKey) bool {
	sh := v.shardOf(key)
	sh.mu.Lock()
	if _, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return false
	}
	sh.m[key] = struct{}{}
	sh.mu.Unlock()
	v.count.Add(1)
	return true
}

// Has reports membership without inserting.
func (v *VisitedSet) Has(key StateKey) bool {
	sh := v.shardOf(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
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
	_, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	if ok {
		v.count.Add(-1)
	}
}

// TryVisitBatch inserts every key, writing per-key absence into fresh
// (true = inserted by this call). Keys are grouped by shard so each shard
// lock is taken at most once per call. fresh must be at least as long as
// keys; the number of inserted keys is returned.
func (v *VisitedSet) TryVisitBatch(keys []StateKey, fresh []bool) int {
	// Group key indices by shard without allocating: for the small batches
	// the explorer issues (one node's successors), a per-shard pass over
	// the slice beats building index lists.
	inserted := 0
	var touched [VisitedShards]bool
	for _, k := range keys {
		touched[int(k[0])%VisitedShards] = true
	}
	for s := 0; s < VisitedShards; s++ {
		if !touched[s] {
			continue
		}
		sh := &v.shards[s]
		sh.mu.Lock()
		for i, k := range keys {
			if int(k[0])%VisitedShards != s {
				continue
			}
			if _, ok := sh.m[k]; ok {
				fresh[i] = false
				continue
			}
			sh.m[k] = struct{}{}
			fresh[i] = true
			inserted++
		}
		sh.mu.Unlock()
	}
	v.count.Add(int64(inserted))
	return inserted
}

// HasBatch writes per-key membership into present (true = already
// visited) without inserting. Keys are grouped by shard so each shard
// lock is taken at most once per call — the explorer's per-node
// pre-filter, replacing one lock acquisition per successor with one per
// touched shard. present must be at least as long as keys.
func (v *VisitedSet) HasBatch(keys []StateKey, present []bool) {
	var touched [VisitedShards]bool
	for _, k := range keys {
		touched[int(k[0])%VisitedShards] = true
	}
	for s := 0; s < VisitedShards; s++ {
		if !touched[s] {
			continue
		}
		sh := &v.shards[s]
		sh.mu.Lock()
		for i, k := range keys {
			if int(k[0])%VisitedShards != s {
				continue
			}
			_, ok := sh.m[k]
			present[i] = ok
		}
		sh.mu.Unlock()
	}
}

// Size returns the number of keys in the set. Safe to call concurrently
// with mutation; the value is a snapshot.
func (v *VisitedSet) Size() int { return int(v.count.Load()) }

// Dump returns the shard contents as fixed-width hex strings in
// deterministic order (shard-major, keys sorted within each shard) — the
// stable serialization the checkpoint CRC requires. The caller must
// guarantee quiescence (the explorer dumps only at checkpoint barriers).
func (v *VisitedSet) Dump() [][]string {
	out := make([][]string, VisitedShards)
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		keys := make([]string, 0, len(sh.m))
		for k := range sh.m {
			keys = append(keys, k.String())
		}
		sh.mu.Unlock()
		sort.Strings(keys)
		out[i] = keys
	}
	return out
}
