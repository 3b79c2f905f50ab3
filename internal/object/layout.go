package object

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Tuple layouts (DESIGN.md §22). A tuple's attributes are named, so their
// order is immaterial to its value (paper §4.2), and the facts of one
// relation share one attribute list. A Layout is such a list, worked out
// once: the names in insertion order, their positions, their Str objects,
// their shares of Tuple.Hash and their sorted order. A tuple is a layout
// and its values.
//
// Layouts are interned in one process-wide table, so tuples with the
// same attribute list in the same order share one layout, and an
// interned layout never changes. Putting a new attribute into a tuple or
// deleting one moves the tuple along a transition edge that its old
// layout caches; following a cached edge takes no lock. The table is
// bounded: past layoutTableCap layouts, or for a list longer than
// layoutMaxArity, a tuple gets a private layout that only it holds and
// that it changes in place: a Put appends a name and inserts it in the
// index, and the Str names, hash shares and sorted order are worked out
// when first read. The table is a cache: which tuples share a layout
// changes no answer, only how fast it comes.

const (
	// layoutTableCap bounds the interned layouts. Insertion orders
	// multiply lists (a chwab insStk is a transition), so the bound
	// is on lists, not on relations.
	layoutTableCap = 4096
	// layoutMaxArity bounds an interned list's length: the layouts of a
	// tuple built up one Put at a time hold quadratically many names.
	layoutMaxArity = 64
)

// Layout is one attribute list in insertion order, with what every
// tuple of that list shares. An interned layout is immutable; a private
// one belongs to the one tuple that holds it (owner).
type Layout struct {
	attrs []string
	index map[string]int32
	key   uint64 // listKey(attrs): the table key; interned layouts only

	// d is what reading the list's tuples needs beyond attrs and index:
	// made with an interned layout; for a private one, on first read,
	// and dropped by every change, so building a private layout one Put
	// at a time costs an append and a map insert per name.
	d atomic.Pointer[derived]
	// owner, when set, is the only tuple holding this private layout,
	// and the only one that may change it.
	owner *Tuple
	// slots are the records an attribute Site caches: one per position,
	// then one for "absent". Interned layouts only.
	slots []slotRef
	// edges are the cached transitions: under a name the layout lacks,
	// the layout with that name put; under one it has, the layout with
	// it deleted. Replaced whole under layouts.mu; interned layouts only.
	edges atomic.Pointer[map[string]*Layout]
}

// derived is worked out from a layout's list, once per list.
type derived struct {
	names  []Object // attrs as Str objects
	hashes []uint64 // each name's share of Tuple.Hash
	sorted []int32  // positions in attribute-name order
}

// layouts is the intern table: open addressing by listKey with linear
// probing, at most half full, so a probe stops at an empty slot soon.
// Slots fill under mu and never empty; lookups take no lock, and neither
// does a miss once n has reached the bound.
var layouts struct {
	mu    sync.Mutex
	n     atomic.Int32
	slots [2 * layoutTableCap]atomic.Pointer[Layout]
}

// rootLayout is the empty list, where every tuple starts.
var rootLayout = func() *Layout {
	l := newLayout(nil)
	l.share(listKey(nil))
	layouts.slots[l.key&(2*layoutTableCap-1)].Store(l)
	layouts.n.Store(1)
	return l
}()

// listKey hashes an ordered attribute list.
func listKey(attrs []string) uint64 {
	h := uint64(fnvOffset)
	for _, a := range attrs {
		h = (h ^ AttrHash(a)) * fnvPrime
	}
	return h
}

// nameHash is attribute a's share of Tuple.Hash.
func nameHash(a string) uint64 { return hashBytes(fnvOffset^0x7777, []byte(a)) }

// lookupLayout returns the interned layout of attrs, or nil.
func lookupLayout(key uint64, attrs []string) *Layout {
	const mask = 2*layoutTableCap - 1
	for i := key & mask; ; i = (i + 1) & mask {
		l := layouts.slots[i].Load()
		if l == nil {
			return nil
		}
		if l.key == key && slices.Equal(l.attrs, attrs) {
			return l
		}
	}
}

// intern returns the interned layout of attrs (distinct names), making
// it when there is room, or nil. build makes a new one from attrs, which
// it may keep.
func intern(attrs []string, build func() *Layout) *Layout {
	key := listKey(attrs)
	if l := lookupLayout(key, attrs); l != nil {
		return l
	}
	if len(attrs) > layoutMaxArity || layouts.n.Load() >= layoutTableCap {
		return nil
	}
	layouts.mu.Lock()
	defer layouts.mu.Unlock()
	if l := lookupLayout(key, attrs); l != nil {
		return l
	}
	if layouts.n.Load() >= layoutTableCap {
		return nil
	}
	l := build()
	if l == nil {
		return nil
	}
	l.share(key)
	const mask = 2*layoutTableCap - 1
	i := key & mask
	for layouts.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	layouts.slots[i].Store(l)
	layouts.n.Add(1)
	return l
}

// newLayout returns a layout of attrs (distinct names), keeping attrs.
func newLayout(attrs []string) *Layout {
	l := &Layout{attrs: attrs, index: make(map[string]int32, len(attrs))}
	for i, a := range attrs {
		l.index[a] = int32(i)
	}
	return l
}

// share readies a new layout for the table under key: its derived
// record and its site records.
func (l *Layout) share(key uint64) {
	l.key = key
	l.derived()
	l.slots = make([]slotRef, len(l.attrs)+1)
	for i := range l.slots {
		l.slots[i] = slotRef{l: l, i: int32(i)}
	}
	l.slots[len(l.attrs)].i = -1
}

// derived returns l's derived record, working it out on first read.
func (l *Layout) derived() *derived {
	if d := l.d.Load(); d != nil {
		return d
	}
	d := &derived{
		names:  make([]Object, len(l.attrs)),
		hashes: make([]uint64, len(l.attrs)),
		sorted: make([]int32, len(l.attrs)),
	}
	for i, a := range l.attrs {
		d.names[i], d.hashes[i], d.sorted[i] = Str(a), nameHash(a), int32(i)
	}
	sort.Slice(d.sorted, func(i, j int) bool { return l.attrs[d.sorted[i]] < l.attrs[d.sorted[j]] })
	l.d.Store(d)
	return d
}

// LayoutOf returns the interned layout of attrs, in that order, for
// builders that know a tuple's attribute list before its values. It is
// nil when attrs repeats a name or the table has no room for it; the
// caller then builds with Put (NewTupleOf does both).
func LayoutOf(attrs []string) *Layout {
	return intern(attrs, func() *Layout {
		l := newLayout(slices.Clone(attrs))
		if len(l.index) != len(attrs) {
			return nil
		}
		return l
	})
}

// New returns a tuple of layout l holding a copy of vals, parallel to
// l's attributes.
func (l *Layout) New(vals []Object) *Tuple {
	if len(vals) != len(l.attrs) {
		panic("object: Layout.New: value count does not match the layout")
	}
	t := newTuple(l, len(vals))
	copy(t.values, vals)
	return t
}

// newTuple returns a tuple of layout l with n nil values. A tuple of
// at most four values shares its allocation with them.
func newTuple(l *Layout, n int) *Tuple {
	if n > 4 {
		return &Tuple{l: l, values: make([]Object, n)}
	}
	b := new(struct {
		t Tuple
		v [4]Object
	})
	b.t.l, b.t.values = l, b.v[:n:n]
	return &b.t
}

// NewTupleOf returns the tuple that putting vals[i] under attrs[i], in
// order, builds, holding a copy of vals: over an interned layout when
// there is one, and otherwise attribute by attribute.
func NewTupleOf(attrs []string, vals []Object) *Tuple {
	if l := LayoutOf(attrs); l != nil {
		return l.New(vals)
	}
	// A private layout from the start: the Puts change it in place
	// rather than walk the table's edges through every prefix of attrs.
	t := NewTupleCap(len(attrs))
	t.l = &Layout{attrs: make([]string, 0, len(attrs)), index: make(map[string]int32, len(attrs)), owner: t}
	for i, a := range attrs {
		t.Put(a, vals[i])
	}
	return t
}

// edge returns the cached transition of l under attr, or nil.
func (l *Layout) edge(attr string) *Layout {
	if m := l.edges.Load(); m != nil {
		return (*m)[attr]
	}
	return nil
}

// transition returns the layout of attrs — l's list with attr put or
// deleted — for t: the interned one, with the edge from l cached, or a
// new private layout owned by t.
func (l *Layout) transition(attr string, attrs []string, t *Tuple) *Layout {
	next := intern(attrs, func() *Layout { return newLayout(attrs) })
	if next == nil {
		p := newLayout(attrs)
		p.owner = t
		return p
	}
	layouts.mu.Lock()
	old := l.edges.Load()
	m := make(map[string]*Layout, 1)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[attr] = next
	l.edges.Store(&m)
	layouts.mu.Unlock()
	return next
}

// with returns the layout t moves to when it puts attr, which l lacks.
// l is interned: a tuple changes its private layout in place instead.
func (l *Layout) with(attr string, t *Tuple) *Layout {
	if next := l.edge(attr); next != nil {
		return next
	}
	attrs := make([]string, len(l.attrs)+1)
	copy(attrs, l.attrs)
	attrs[len(l.attrs)] = attr
	return l.transition(attr, attrs, t)
}

// without returns the layout t moves to when it deletes attr, at
// position i of l, which is interned.
func (l *Layout) without(attr string, i int, t *Tuple) *Layout {
	if next := l.edge(attr); next != nil {
		return next
	}
	attrs := make([]string, 0, len(l.attrs)-1)
	attrs = append(append(attrs, l.attrs[:i]...), l.attrs[i+1:]...)
	return l.transition(attr, attrs, t)
}

// push appends attr to a private layout.
func (l *Layout) push(attr string) {
	l.index[attr] = int32(len(l.attrs))
	l.attrs = append(l.attrs, attr)
	l.changed()
}

// remove deletes position i from a private layout.
func (l *Layout) remove(i int) {
	delete(l.index, l.attrs[i])
	l.attrs = slices.Delete(l.attrs, i, i+1)
	for j := i; j < len(l.attrs); j++ {
		l.index[l.attrs[j]] = int32(j)
	}
	l.changed()
}

// changed drops a private layout's derived record.
func (l *Layout) changed() {
	if l.d.Load() != nil {
		l.d.Store(nil)
	}
}

// private returns a copy of l owned by t.
func (l *Layout) private(t *Tuple) *Layout {
	p := &Layout{attrs: slices.Clone(l.attrs), index: maps.Clone(l.index), owner: t}
	p.d.Store(l.d.Load())
	return p
}

// Site is an inline cache for reading one attribute name, at one place
// in a program, from the tuples that place meets: it keeps the last
// interned layout it saw with the name's position there, so reading a
// tuple of that layout again is one pointer compare and a slice index.
// The zero value is empty and ready to use; it is safe for concurrent
// use — the record it keeps is immutable and swapped atomically. A Site
// must always be read with the same name.
type Site struct {
	last atomic.Pointer[slotRef]
}

// slotRef is one position (i < 0: absent) in one interned layout.
type slotRef struct {
	l *Layout
	i int32
}

// Lookup is Get through the site s, which caches attr's position.
func (t *Tuple) Lookup(s *Site, attr string) (Object, bool) {
	if r := s.last.Load(); r != nil && r.l == t.l {
		if r.i < 0 {
			return nil, false
		}
		return t.values[r.i], true
	}
	l := t.layout()
	i, ok := l.index[attr]
	if l.slots != nil {
		if ok {
			s.last.Store(&l.slots[i])
		} else {
			s.last.Store(&l.slots[len(l.attrs)])
		}
	}
	if !ok {
		return nil, false
	}
	return t.values[i], true
}
