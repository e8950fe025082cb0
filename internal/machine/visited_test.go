package machine

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// keyN derives a distinct StateKey whose shard is controlled by the
// leading byte, so tests can place keys on chosen shards.
func keyN(shard, n int) StateKey {
	var k StateKey
	k[0] = byte(shard % VisitedShards)
	k[1] = byte(n)
	k[2] = byte(n >> 8)
	return k
}

// TestVisitedShardFillsCacheLine: each shard (mutex, map pointer,
// padding) is exactly one 64-byte cache line, so neighbouring shards'
// mutexes never share one.
func TestVisitedShardFillsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(visitedShard{}); n != 64 {
		t.Fatalf("visitedShard is %d bytes, want 64", n)
	}
}

func TestVisitedTryVisitHasRemove(t *testing.T) {
	v := NewVisitedSet()
	k := keyN(7, 1)
	if v.Has(k) {
		t.Fatal("empty set reports membership")
	}
	if !v.TryVisit(k) {
		t.Fatal("first TryVisit reported already-visited")
	}
	if v.TryVisit(k) {
		t.Fatal("second TryVisit interned the same key twice")
	}
	if !v.Has(k) || v.Size() != 1 {
		t.Fatalf("after insert: Has=%v Size=%d", v.Has(k), v.Size())
	}
	v.Remove(k)
	if v.Has(k) || v.Size() != 0 {
		t.Fatalf("after remove: Has=%v Size=%d", v.Has(k), v.Size())
	}
	// Removing an absent key is a no-op, not an underflow.
	v.Remove(k)
	if v.Size() != 0 {
		t.Fatalf("remove of absent key changed size to %d", v.Size())
	}
	if !v.TryVisit(k) {
		t.Fatal("re-insert after Remove reported already-visited")
	}
}

func TestVisitedBatchMatchesScalar(t *testing.T) {
	v := NewVisitedSet()
	// Keys spread across shards, with some pre-inserted via the scalar path.
	keys := make([]StateKey, 0, 40)
	for i := 0; i < 40; i++ {
		keys = append(keys, keyN(i*5, i))
	}
	for i := 0; i < 40; i += 3 {
		v.TryVisit(keys[i])
	}
	present := make([]bool, len(keys))
	v.HasBatch(keys, present)
	for i := range keys {
		if present[i] != (i%3 == 0) {
			t.Fatalf("HasBatch[%d] = %v, want %v", i, present[i], i%3 == 0)
		}
	}
	fresh := make([]bool, len(keys))
	inserted := v.TryVisitBatch(keys, fresh)
	wantInserted := 0
	for i := range keys {
		wantFresh := i%3 != 0
		if fresh[i] != wantFresh {
			t.Fatalf("TryVisitBatch fresh[%d] = %v, want %v", i, fresh[i], wantFresh)
		}
		if wantFresh {
			wantInserted++
		}
	}
	if inserted != wantInserted {
		t.Fatalf("TryVisitBatch inserted %d, want %d", inserted, wantInserted)
	}
	if v.Size() != len(keys) {
		t.Fatalf("Size = %d, want %d", v.Size(), len(keys))
	}
	// Everything is now present; a second batch insert is a full dup.
	if n := v.TryVisitBatch(keys, fresh); n != 0 {
		t.Fatalf("re-batch inserted %d keys", n)
	}
	for i := range keys {
		if fresh[i] {
			t.Fatalf("re-batch reported key %d fresh", i)
		}
	}
}

func TestVisitedBatchDuplicatesWithinBatch(t *testing.T) {
	v := NewVisitedSet()
	k := keyN(3, 9)
	keys := []StateKey{k, keyN(4, 1), k}
	fresh := make([]bool, len(keys))
	if n := v.TryVisitBatch(keys, fresh); n != 2 {
		t.Fatalf("inserted %d, want 2 (duplicate collapses)", n)
	}
	// The first occurrence interns; the second sees it already present.
	if !fresh[0] || !fresh[1] || fresh[2] {
		t.Fatalf("fresh = %v, want [true true false]", fresh)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
}

// Dump is the checkpoint serialization: shard-major, keys hex-sorted
// within a shard, and independent of insertion order or which code path
// (scalar vs batch) interned each key.
func TestVisitedDumpDeterministic(t *testing.T) {
	build := func(perm []int, batch bool) *VisitedSet {
		v := NewVisitedSet()
		keys := make([]StateKey, 0, len(perm))
		for _, i := range perm {
			keys = append(keys, keyN(i*11, i))
		}
		if batch {
			v.TryVisitBatch(keys, make([]bool, len(keys)))
		} else {
			for _, k := range keys {
				v.TryVisit(k)
			}
		}
		return v
	}
	fwd, rev := make([]int, 30), make([]int, 30)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a := build(fwd, false).Dump()
	b := build(rev, true).Dump()
	if len(a) != VisitedShards || len(b) != VisitedShards {
		t.Fatalf("dump shard counts: %d, %d", len(a), len(b))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("Dump depends on insertion order or code path")
	}
	total := 0
	for si, shard := range a {
		total += len(shard)
		for i := 1; i < len(shard); i++ {
			if shard[i-1] >= shard[i] {
				t.Fatalf("shard %d not strictly sorted: %q >= %q", si, shard[i-1], shard[i])
			}
		}
	}
	if total != 30 {
		t.Fatalf("dump holds %d keys, want 30", total)
	}
}

// Hammer one set from many goroutines mixing scalar and batch paths:
// every key must be interned exactly once in total (the race detector
// covers the locking; this covers the count).
func TestVisitedConcurrentExactCount(t *testing.T) {
	v := NewVisitedSet()
	const goroutines, perG = 8, 400
	keys := make([]StateKey, goroutines*perG)
	for i := range keys {
		keys[i] = keyN(i, i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	claimed := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := 0
			// Every goroutine attempts the full key set, offset so the
			// contention pattern differs per goroutine; half use batches.
			if g%2 == 0 {
				fresh := make([]bool, len(keys))
				mine = v.TryVisitBatch(keys, fresh)
			} else {
				for i := range keys {
					if v.TryVisit(keys[(i+g*perG)%len(keys)]) {
						mine++
					}
				}
			}
			mu.Lock()
			claimed += mine
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if claimed != len(keys) {
		t.Fatalf("goroutines claimed %d insertions, want %d", claimed, len(keys))
	}
	if v.Size() != len(keys) {
		t.Fatalf("Size = %d, want %d", v.Size(), len(keys))
	}
}
