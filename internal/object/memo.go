package object

import (
	"math/bits"
	"slices"
	"sync"
)

// What an engine derives from a set's contents — the attribute indexes
// its equality probes read and the statistics its planner ranks by — is
// a function of that set alone (paper §3: sets are values), so the set
// carries it. A set's memo holds both, stamped with the version they
// describe: a content change makes the memo stale, and the next use
// rebuilds what it asks for. Each index and the statistics are built at
// most once per version, under the memo's lock, however many goroutines
// ask at once; concurrent readers of a built memo share its read lock.
// The memo dies with its set.
//
// A set is frozen once a snapshot shares it (Freeze): it never changes
// again, so a writer that must change it changes a clone (Thaw).

// memo is one set's derived data at one version.
type memo struct {
	mu      sync.RWMutex
	version uint64
	indexes []*attrIndex
	stats   *SetStats
}

// memo returns s's memo, allocating it on first use.
func (s *Set) memo() *memo {
	if m := s.derived.Load(); m != nil {
		return m
	}
	s.derived.CompareAndSwap(nil, new(memo))
	return s.derived.Load()
}

// at readies m for version ver, dropping what it held for an older one.
// Callers hold m.mu for writing.
func (m *memo) at(ver uint64) {
	if m.version != ver {
		m.version, m.indexes, m.stats = ver, nil, nil
	}
}

// Freeze marks s as shared with a snapshot: from now on it must not
// change, and Thaw clones it rather than hand it out for mutation.
func (s *Set) Freeze() { s.frozen.Store(true) }

// Thaw returns the set a writer may mutate in place of s, which parent
// holds under attr: s itself when it is not frozen, otherwise a shallow
// clone of s that replaces it under attr (cloned reports which). The
// clone starts unfrozen, with an empty memo.
func Thaw(parent *Tuple, attr string, s *Set) (_ *Set, cloned bool) {
	if !s.frozen.Load() {
		return s, false
	}
	c := s.ShallowClone()
	parent.Put(attr, c)
	return c, true
}

// AttrEq is one ground equality `.Attr = Val` an index probe pins.
type AttrEq struct {
	Attr string
	Val  Object
}

// attrIndex maps the values a probe pins on a set of attributes to the
// elements carrying them. Its buckets are spans over one element slice,
// laid out bucket by bucket with each bucket in set order: a build
// allocates a handful of slices however many buckets it makes, and a
// probe's candidates are a subsequence of insertion order — the order a
// scan would meet them.
type attrIndex struct {
	attrHash uint64   // AttrHash summed over attrs: order-insensitive
	attrs    []string // in the building probe's order
	elems    []Object // the indexed elements, bucket by bucket
	buckets  map[uint64]int32
	spans    []span // by bucket number: its run of elems
}

type span struct{ off, n int32 }

// Probe returns the elements of s that may satisfy every equality in eqs
// (distinct attributes), in set order — candidates: hash collisions are
// left to the caller's full evaluation — and whether this call built the
// index over eqs' attributes. Over a built index it allocates nothing.
// The caller must not mutate s during the call.
func (s *Set) Probe(eqs []AttrEq) (cands []Object, built bool) {
	var attrs, vals uint64
	for _, eq := range eqs {
		ah := AttrHash(eq.Attr)
		attrs += ah
		vals += PairHash(ah, eq.Val)
	}
	m, ver := s.memo(), s.version
	m.mu.RLock()
	idx := m.index(ver, attrs, eqs)
	m.mu.RUnlock()
	if idx == nil {
		m.mu.Lock()
		if idx = m.index(ver, attrs, eqs); idx == nil {
			m.at(ver)
			idx = buildIndex(s, eqs, attrs)
			m.indexes = append(m.indexes, idx)
			built = true
		}
		m.mu.Unlock()
	}
	b, ok := idx.buckets[vals]
	if !ok {
		return nil, built
	}
	sp := idx.spans[b]
	return idx.elems[sp.off : sp.off+sp.n : sp.off+sp.n], built
}

// index returns m's index over exactly the attributes of eqs (whose
// summed hash is attrs) if m holds one at version ver.
func (m *memo) index(ver, attrs uint64, eqs []AttrEq) *attrIndex {
	if m.version != ver {
		return nil
	}
	for _, idx := range m.indexes {
		if idx.attrHash == attrs && idx.keyedBy(eqs) {
			return idx
		}
	}
	return nil
}

// keyedBy reports whether idx is keyed by exactly the attributes of eqs.
func (idx *attrIndex) keyedBy(eqs []AttrEq) bool {
	if len(idx.attrs) != len(eqs) {
		return false
	}
	for _, eq := range eqs {
		if !slices.Contains(idx.attrs, eq.Attr) {
			return false
		}
	}
	return true
}

// buildIndex indexes s's tuples carrying every attribute of eqs by the
// values they carry there.
func buildIndex(s *Set, eqs []AttrEq, attrs uint64) *attrIndex {
	idx := &attrIndex{attrHash: attrs, attrs: make([]string, len(eqs)), buckets: map[uint64]int32{}}
	ahs := make([]uint64, len(eqs))
	sites := make([]Site, len(eqs))
	for i, eq := range eqs {
		idx.attrs[i], ahs[i] = eq.Attr, AttrHash(eq.Attr)
	}
	members := make([]Object, 0, s.Len())
	bucketOf := make([]int32, 0, s.Len())
	s.Each(func(elem Object) bool {
		tup, ok := elem.(*Tuple)
		if !ok {
			return true
		}
		var k uint64
		for i, attr := range idx.attrs {
			v, ok := tup.Lookup(&sites[i], attr)
			if !ok {
				return true
			}
			k += PairHash(ahs[i], v)
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
	idx.elems = make([]Object, len(members))
	for i, elem := range members {
		sp := &idx.spans[bucketOf[i]]
		idx.elems[sp.off+sp.n] = elem
		sp.n++
	}
	return idx
}

// AttrHash is FNV-1a over an attribute name.
func AttrHash(a string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	return h
}

// PairHash is one (attribute, value) pair's share of a hash that sums
// the pairs, so attribute order does not matter: an index probe's key,
// an indexed element's bucket key, and an engine's decree support hash.
func PairHash(attrHash uint64, v Object) uint64 {
	return (bits.RotateLeft64(attrHash, 29) ^ v.Hash()) * 0x9e3779b97f4a7c15
}

// statSampleCap bounds the elements examined when estimating distinct
// counts. The sample is the insertion-order prefix, so it is
// deterministic for a given set content — identical statistics (and
// therefore identical plans) on every engine evaluating the same
// universe.
const statSampleCap = 256

// SetStats is a relation's planner statistics at one version: its exact
// cardinality and per-attribute distinct-value estimates.
type SetStats struct {
	Card     int
	Distinct map[string]int // attribute -> estimated distinct values
}

// Stats returns s's statistics at its current version, computing them
// on first use after a change. The caller must not mutate s during the
// call, and must not modify the result.
func (s *Set) Stats() *SetStats {
	m, ver := s.memo(), s.version
	m.mu.RLock()
	st := m.stats
	if m.version != ver {
		st = nil
	}
	m.mu.RUnlock()
	if st != nil {
		return st
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at(ver)
	if m.stats == nil {
		m.stats = computeStats(s)
	}
	return m.stats
}

// computeStats counts a relation: exact cardinality, and per-attribute
// distinct-value estimates from a bounded insertion-order sample. When
// every sampled value of an attribute is distinct the attribute is
// extrapolated as a key (distinct ≈ cardinality); otherwise the sample's
// distinct count stands — small value domains saturate well inside the
// sample.
func computeStats(s *Set) *SetStats {
	st := &SetStats{Card: s.Len(), Distinct: map[string]int{}}
	seen := map[string]map[uint64]struct{}{}
	rows := 0
	for _, el := range s.SampleN(statSampleCap) {
		tup, ok := el.(*Tuple)
		if !ok {
			continue
		}
		rows++
		for i, attr := range tup.Attrs() {
			v := tup.Values()[i]
			vals := seen[attr]
			if vals == nil {
				vals = make(map[uint64]struct{})
				seen[attr] = vals
			}
			vals[v.Hash()] = struct{}{}
		}
	}
	for attr, vals := range seen {
		d := len(vals)
		if rows > 0 && d == rows && st.Card > d {
			d = st.Card
		}
		st.Distinct[attr] = d
	}
	return st
}
