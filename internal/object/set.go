package object

import (
	"sort"
	"strings"
)

// Set is a value-based collection of objects with set semantics: adding an
// element equal to an existing one is a no-op. Elements may be
// heterogeneous (paper §3) — a relation is a Set of Tuples, but nothing
// restricts element kinds or tuple arities.
//
// Internally the set keeps an insertion-order slice for deterministic
// iteration plus a hash index (hash → element positions) for O(1)
// membership tests; relations of hundreds of thousands of tuples are the
// expected scale.
//
// The zero value is an empty set ready for use.
type Set struct {
	elems   []Object
	index   map[uint64][]int // element hash -> positions in elems
	holes   int              // count of nil (removed) slots in elems
	version uint64           // bumped on every content change
}

// Version returns a counter that increases on every content change. Query
// engines use it to invalidate per-set caches (e.g. attribute indexes).
// Note: in-place mutation of an element does not bump the version — the
// update evaluator must remove, mutate, and re-add elements, which both
// keeps hashes coherent and bumps the version.
func (s *Set) Version() uint64 { return s.version }

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// SetOf builds a set from the given values (converted like TupleOf).
func SetOf(values ...any) *Set {
	s := NewSet()
	for _, v := range values {
		s.Add(toObject(v))
	}
	return s
}

// Len returns the number of elements.
func (s *Set) Len() int { return len(s.elems) - s.holes }

// Contains reports whether an element equal to obj is present.
func (s *Set) Contains(obj Object) bool {
	_, ok := s.find(obj, obj.Hash())
	return ok
}

// find locates the element equal to obj, whose hash the caller supplies
// (aggregate hashes walk the whole object, so each operation takes one).
func (s *Set) find(obj Object, hash uint64) (int, bool) {
	if s.index == nil {
		return 0, false
	}
	for _, i := range s.index[hash] {
		if s.elems[i] != nil && s.elems[i].Equal(obj) {
			return i, true
		}
	}
	return 0, false
}

// Add inserts obj unless an equal element already exists, reporting
// whether the set changed.
func (s *Set) Add(obj Object) bool {
	h := obj.Hash()
	if _, ok := s.find(obj, h); ok {
		return false
	}
	if s.index == nil {
		s.index = make(map[uint64][]int)
	}
	s.index[h] = append(s.index[h], len(s.elems))
	s.elems = append(s.elems, obj)
	s.version++
	return true
}

// Remove deletes the element equal to obj, reporting whether the set
// changed. Removal leaves a hole to keep positions stable; holes are
// compacted once they dominate the slice.
func (s *Set) Remove(obj Object) bool {
	h := obj.Hash()
	i, ok := s.find(obj, h)
	if !ok {
		return false
	}
	s.removeAt(i, h)
	return true
}

func (s *Set) removeAt(i int, hash uint64) {
	bucket := s.index[hash]
	for j, p := range bucket {
		if p == i {
			bucket[j] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.index, hash)
	} else {
		s.index[hash] = bucket
	}
	s.elems[i] = nil
	s.holes++
	s.version++
	if s.holes > len(s.elems)/2 && s.holes > 16 {
		s.compact()
	}
}

// RemoveWhere deletes every element for which pred returns true and
// returns the removed elements in iteration order.
func (s *Set) RemoveWhere(pred func(Object) bool) []Object {
	var removed []Object
	for i, e := range s.elems {
		if e == nil || !pred(e) {
			continue
		}
		removed = append(removed, e)
		s.removeAt(i, e.Hash())
	}
	return removed
}

func (s *Set) compact() {
	elems := make([]Object, 0, s.Len())
	for _, e := range s.elems {
		if e != nil {
			elems = append(elems, e)
		}
	}
	s.elems = elems
	s.holes = 0
	s.index = make(map[uint64][]int, len(elems))
	for i, e := range elems {
		h := e.Hash()
		s.index[h] = append(s.index[h], i)
	}
}

// Each calls fn for every element in insertion order, stopping early if fn
// returns false. fn must not mutate the set (use Elems for a stable
// snapshot if mutation during iteration is needed).
func (s *Set) Each(fn func(Object) bool) {
	for _, e := range s.elems {
		if e == nil {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// Elems returns a snapshot slice of the elements in insertion order.
func (s *Set) Elems() []Object {
	out := make([]Object, 0, s.Len())
	for _, e := range s.elems {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// SampleN returns up to n elements in insertion order — a deterministic
// prefix sample for statistics estimation. The same content in the same
// insertion order always yields the same sample.
func (s *Set) SampleN(n int) []Object {
	if n <= 0 {
		return nil
	}
	out := make([]Object, 0, n)
	for _, e := range s.elems {
		if e == nil {
			continue
		}
		out = append(out, e)
		if len(out) == n {
			break
		}
	}
	return out
}

// SortedElems returns the elements in canonical (Compare) order.
func (s *Set) SortedElems() []Object {
	out := s.Elems()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (s *Set) Kind() Kind { return KindSet }

// Equal reports value equality: same cardinality and mutual containment.
func (s *Set) Equal(o Object) bool {
	other, ok := o.(*Set)
	if !ok || s.Len() != other.Len() {
		return false
	}
	eq := true
	s.Each(func(e Object) bool {
		if !other.Contains(e) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Hash combines element hashes commutatively so it is insertion-order
// insensitive.
func (s *Set) Hash() uint64 {
	var acc uint64 = 0x0f0f0f0f0f0f0f0f
	s.Each(func(e Object) bool {
		acc += e.Hash()
		return true
	})
	return hashUint64(fnvOffset^0x9999, acc) ^ uint64(s.Len())
}

// Compare orders sets by cardinality, then element-wise in canonical
// order. Used only for deterministic rendering.
func (s *Set) Compare(o Object) int {
	if c, done := compareRanks(KindSet, o); done {
		return c
	}
	other := o.(*Set)
	a, b := s.SortedElems(), other.SortedElems()
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// ShallowClone returns a structural copy of the set that shares the
// element objects: the element slice, hash index and version are copied
// so the clone can be mutated (Add/Remove) without disturbing the
// original, but the elements themselves are the same pointers. This is
// the copy-on-write primitive of the MVCC layer — a writer clones a
// published relation, mutates the clone, and installs it, while readers
// keep iterating the original. Mutating a shared element through the
// clone is NOT safe; element-level updates must deep-clone the element
// first (remove, clone, mutate, re-add).
func (s *Set) ShallowClone() *Set {
	c := &Set{
		elems:   make([]Object, len(s.elems)),
		holes:   s.holes,
		version: s.version,
	}
	copy(c.elems, s.elems)
	if s.index != nil {
		c.index = make(map[uint64][]int, len(s.index))
		for h, bucket := range s.index {
			nb := make([]int, len(bucket))
			copy(nb, bucket)
			c.index[h] = nb
		}
	}
	return c
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() Object {
	c := NewSet()
	s.Each(func(e Object) bool {
		c.Add(e.Clone())
		return true
	})
	return c
}

// String renders the set as {elem, elem, …} in insertion order.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(e Object) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(e.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// CanonicalString renders the set with elements in canonical order, for
// deterministic test assertions.
func (s *Set) CanonicalString() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.SortedElems() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(canonicalString(e))
	}
	b.WriteByte('}')
	return b.String()
}
