package core

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"idl/internal/object"
)

// indexCache holds lazily built hash indexes over sets, one per (set,
// attribute-name set): an index maps the values a probe pins to the
// elements carrying them. A probe pins every ground equality `.a = v` of
// its set expression at once, so `.stkCode=s, .date=d` reads the one
// element of that stock on that day rather than every day of the stock;
// a single-attribute index is the n = 1 case of the same mechanism. An
// index is rebuilt when its set's version counter moves (the update
// evaluator bumps versions by removing and re-adding mutated elements;
// the MVCC COW path replaces the set pointer outright, which reads as a
// miss here).
//
// An index's buckets are spans over one element slice, laid out bucket
// by bucket with each bucket in set order: a build allocates a handful of
// slices however many buckets it makes, and a probe's candidates are a
// subsequence of insertion order — the order a scan would meet them, so
// the rows an evaluation emits come out in the same order either way.
// A probe allocates nothing: the attribute-name set is keyed by an
// order-insensitive hash (checked against the index's own names), and the
// pinned values by another.
//
// The cache is owned by an Engine and shared across its evaluations,
// including the worker goroutines of parallel evaluation (parallel.go)
// and fully concurrent snapshot readers. It is sharded by set pointer
// with a read/write mutex per shard: once an index is built, concurrent
// readers take only a shard read-lock. A miss upgrades to the shard
// write-lock and double-checks before building, so concurrent workers
// still share one build of each index.
type indexCache struct {
	shards [indexShards]indexShard
}

// indexShards is the shard count; a small power of two keeps the
// pointer-hash cheap while spreading relations across locks.
const indexShards = 16

type indexShard struct {
	mu sync.RWMutex
	m  map[indexKey]*setIndex
}

type indexKey struct {
	set   *object.Set
	attrs uint64 // order-insensitive hash of the attribute names
}

// indexEq is one ground equality `.attr = val` a probe pins.
type indexEq struct {
	attr string
	val  object.Object
}

type setIndex struct {
	version uint64
	attrs   []string        // the attribute names, in the building probe's order
	elems   []object.Object // the indexed elements, bucket by bucket
	buckets map[uint64]int32
	spans   []span // by bucket number: its run of elems
}

type span struct{ off, n int32 }

func newIndexCache() *indexCache {
	c := &indexCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[indexKey]*setIndex)
	}
	return c
}

// shardFor picks the shard for a set by mixing its pointer bits.
func (c *indexCache) shardFor(set *object.Set) *indexShard {
	// Fibonacci hash of the pointer; low bits of Go pointers are aligned
	// zeros, so mix before masking.
	h := uint64(uintptr(unsafe.Pointer(set))) * 0x9e3779b97f4a7c15
	return &c.shards[(h>>59)&(indexShards-1)]
}

// lookup returns the elements of set that may satisfy every equality in
// eqs (distinct attributes) — candidates: hash collisions are filtered by
// the caller's full evaluation.
func (c *indexCache) lookup(set *object.Set, eqs []indexEq, stats *Stats) []object.Object {
	var attrs, vals uint64
	for _, eq := range eqs {
		ah := attrHash(eq.attr)
		attrs += ah
		vals += pairHash(ah, eq.val)
	}
	sh := c.shardFor(set)
	key := indexKey{set: set, attrs: attrs}
	ver := set.Version()
	sh.mu.RLock()
	idx := sh.m[key]
	sh.mu.RUnlock()
	if !idx.serves(ver, eqs) {
		sh.mu.Lock()
		if idx = sh.m[key]; !idx.serves(ver, eqs) {
			idx = buildIndex(set, eqs)
			sh.m[key] = idx
			stats.IndexBuilds++
		}
		sh.mu.Unlock()
	}
	b, ok := idx.buckets[vals]
	if !ok {
		return nil
	}
	s := idx.spans[b]
	return idx.elems[s.off : s.off+s.n : s.off+s.n]
}

// serves reports whether idx is current at version ver and keyed by
// exactly the attributes of eqs.
func (idx *setIndex) serves(ver uint64, eqs []indexEq) bool {
	if idx == nil || idx.version != ver || len(idx.attrs) != len(eqs) {
		return false
	}
	for _, eq := range eqs {
		if !slices.Contains(idx.attrs, eq.attr) {
			return false
		}
	}
	return true
}

// buildIndex indexes set's tuples carrying every attribute of eqs by the
// values they carry there.
func buildIndex(set *object.Set, eqs []indexEq) *setIndex {
	idx := &setIndex{version: set.Version(), attrs: make([]string, len(eqs)), buckets: map[uint64]int32{}}
	ahs := make([]uint64, len(eqs))
	for i, eq := range eqs {
		idx.attrs[i], ahs[i] = eq.attr, attrHash(eq.attr)
	}
	members := make([]object.Object, 0, set.Len())
	bucketOf := make([]int32, 0, set.Len())
	set.Each(func(elem object.Object) bool {
		tup, ok := elem.(*object.Tuple)
		if !ok {
			return true
		}
		var k uint64
		for i, attr := range idx.attrs {
			v, ok := tup.Get(attr)
			if !ok {
				return true
			}
			k += pairHash(ahs[i], v)
		}
		b, seen := idx.buckets[k]
		if !seen {
			b = int32(len(idx.spans))
			idx.buckets[k] = b
			idx.spans = append(idx.spans, span{})
		}
		idx.spans[b].n++
		members = append(members, elem)
		bucketOf = append(bucketOf, b)
		return true
	})
	var off int32
	for b := range idx.spans {
		idx.spans[b].off, off = off, off+idx.spans[b].n
		idx.spans[b].n = 0
	}
	idx.elems = make([]object.Object, len(members))
	for i, elem := range members {
		s := &idx.spans[bucketOf[i]]
		idx.elems[s.off+s.n] = elem
		s.n++
	}
	return idx
}

// attrHash is FNV-1a over an attribute name.
func attrHash(a string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	return h
}

// pairHash is one (attribute, value) pair's share of a hash that sums
// the pairs, so attribute order does not matter: a decree's support hash,
// an index probe's and an indexed element's bucket key.
func pairHash(attrHash uint64, v object.Object) uint64 {
	return (bits.RotateLeft64(attrHash, 29) ^ v.Hash()) * 0x9e3779b97f4a7c15
}

// retain drops every index whose set is not in the live set — the
// relations reachable from the (just rebuilt) effective universe and any
// retained MVCC snapshot — and keeps the rest. Per-relation invalidation
// instead of a wholesale wipe: an update to one relation no longer
// discards every other relation's index. Retention is always safe:
// lookup re-checks the set's version and rebuilds on mismatch, so a
// retained index over a mutated set simply rebuilds on next use.
func (c *indexCache) retain(live map[*object.Set]bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key := range sh.m {
			if !live[key.set] {
				delete(sh.m, key)
			}
		}
		sh.mu.Unlock()
	}
}
