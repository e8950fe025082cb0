package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
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

// TestVisitedShardFillsCacheLine: each shard (mutex, table, count, zero
// flag, padding) is exactly one 64-byte cache line, so neighbouring
// shards' mutexes never share one.
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

// Dump is the checkpoint serialization: shard-major, keys hex-sorted
// within a shard, and independent of insertion order.
func TestVisitedDumpDeterministic(t *testing.T) {
	build := func(perm []int) *VisitedSet {
		v := NewVisitedSet()
		for _, i := range perm {
			v.TryVisit(keyN(i*11, i))
		}
		return v
	}
	fwd, rev := make([]int, 30), make([]int, 30)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a := build(fwd).Dump()
	b := build(rev).Dump()
	if len(a) != VisitedShards || len(b) != VisitedShards {
		t.Fatalf("dump shard counts: %d, %d", len(a), len(b))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("Dump depends on insertion order")
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

// Hammer one set from many goroutines, each attempting the full key set
// from a different offset: every key must be interned exactly once in
// total (the race detector covers the locking; this covers the count).
func TestVisitedConcurrentExactCount(t *testing.T) {
	v := NewVisitedSet()
	const goroutines, perG = 8, 400
	keys := make([]StateKey, goroutines*perG)
	for i := range keys {
		keys[i] = keyN(i, i)
	}
	var wg sync.WaitGroup
	var claimed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range keys {
				if v.TryVisit(keys[(i+g*perG)%len(keys)]) {
					claimed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if claimed.Load() != int64(len(keys)) {
		t.Fatalf("goroutines claimed %d insertions, want %d", claimed.Load(), len(keys))
	}
	if v.Size() != len(keys) {
		t.Fatalf("Size = %d, want %d", v.Size(), len(keys))
	}
	for _, k := range keys {
		if !v.Has(k) {
			t.Fatalf("interned key %v missing", k)
		}
	}
}

// TestVisitedMatchesMapReference drives one shard's table through random
// TryVisit/Has/Remove sequences against a Go map. Most keys share one
// home slot at every table size (their two words are equal, so the probe
// hash is 0), which makes one long probe chain that removals cut in the
// middle; the rest land anywhere, so chains also hold keys whose home
// lies past a hole, which backward shifting must not move. The all-zero
// key is in the pool. The live key count crosses 3/4 load of the 64-slot
// and the 128-slot table.
func TestVisitedMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pool []StateKey
	pool = append(pool, StateKey{})
	for len(pool) < 200 {
		var k StateKey
		w0 := rng.Uint64() &^ 0xff // key[0] = 0: shard 0, like the zero key
		w1 := w0
		if len(pool) > 150 {
			w1 = rng.Uint64()
		}
		binary.LittleEndian.PutUint64(k[:8], w0)
		binary.LittleEndian.PutUint64(k[8:], w1)
		if k == (StateKey{}) {
			continue
		}
		if len(pool) <= 150 && homeSlot(k, visitedShardSlots) != 0 {
			t.Fatalf("key %v: equal words must probe from slot 0", k)
		}
		pool = append(pool, k)
	}
	v := NewVisitedSet()
	ref := map[StateKey]struct{}{}
	sh := &v.shards[0]
	grew := map[int]bool{}
	for op := 0; op < 20000; op++ {
		k := pool[rng.Intn(len(pool))]
		_, had := ref[k]
		switch r := rng.Intn(10); {
		case r < 5:
			if got := v.TryVisit(k); got == had {
				t.Fatalf("op %d: TryVisit(%v) = %v with the key present=%v", op, k, got, had)
			}
			ref[k] = struct{}{}
		case r < 8:
			v.Remove(k)
			delete(ref, k)
		default:
			if got := v.Has(k); got != had {
				t.Fatalf("op %d: Has(%v) = %v, want %v", op, k, got, had)
			}
		}
		grew[len(sh.slots)] = true
		if v.Size() != len(ref) {
			t.Fatalf("op %d: Size = %d, reference holds %d", op, v.Size(), len(ref))
		}
		if 4*sh.used > 3*len(sh.slots) {
			t.Fatalf("op %d: %d keys in %d slots exceed 3/4 load", op, sh.used, len(sh.slots))
		}
		if op%50 == 0 {
			for _, p := range pool {
				if _, in := ref[p]; v.Has(p) != in {
					t.Fatalf("op %d: Has(%v) = %v, reference %v", op, p, !in, in)
				}
			}
			want := make([]string, 0, len(ref))
			for r := range ref {
				want = append(want, r.String())
			}
			sort.Strings(want)
			got := v.Dump()
			if fmt.Sprint(got[0]) != fmt.Sprint(want) {
				t.Fatalf("op %d: shard 0 dumps %v, want %v", op, got[0], want)
			}
		}
	}
	if !grew[4*visitedShardSlots] {
		t.Fatalf("table sizes seen %v: the run never grew past 3/4 load twice", grew)
	}
}
