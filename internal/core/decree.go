package core

import (
	"errors"
	"fmt"
	"slices"

	"idl/internal/object"
)

// Make-true (§6, DESIGN.md §4). A decree is what a rule head's set
// expression asserts for one body substitution: "some element of this
// set satisfies the (ground, simple) expression". A derived relation is
// a function of the *set* of decrees its rules make, not of the order
// they arrive in:
//
//   - Tuple decrees group by their values of the relation's key — the
//     constant attribute names every head feeding the relation decrees
//     (viewTarget). Decrees with different key values disagree on a key
//     attribute, so no element could satisfy both.
//   - A group whose decrees are pairwise compatible (every attribute two
//     of them share has equal values) is one element: their union.
//   - Otherwise the group is the canonical first-fit: its decrees in
//     canonical order (object.Compare), each joining the first element
//     it is compatible with, or else starting a new one.
//   - A decree that is not a tuple (an atom or a set) has no attributes
//     to merge on and is simply a member.
//
// The union is what makes the paper's §6 claims come out: the dbC rule
// `.dbC.r+(.date=D, .S=P) ← .dbI.p(…)` folds every stock of one day into
// a single chwab-style row, while a conflicting value (a price
// discrepancy) is incompatible and lands in its own element — "both
// prices are in the user's view". The paper's own recursive definition
// of make-true is in the unavailable technical memo [KLK90]; this reading
// is the one under which §6's integration-transparency examples hold and
// a view's contents do not depend on evaluation order.

// decree is one decree under construction, refilled for every head row:
// a tuple decree's attributes in source order, or any other object.
type decree struct {
	attrs []string
	vals  []object.Object
	built *object.Tuple // a tuple decree that arrived built (a head variable bound to a tuple)
	other object.Object // a decree that is not a tuple
}

// fill builds the element tmpl decrees under row into d.
func (d *decree) fill(tmpl *elemTemplate, row []object.Object) error {
	d.attrs, d.vals, d.built, d.other = d.attrs[:0], d.vals[:0], nil, nil
	if tmpl.kind == tmplTuple {
		return tmpl.fill(d, row)
	}
	obj, err := tmpl.build(row)
	if err != nil {
		return err
	}
	tup, ok := obj.(*object.Tuple)
	if !ok {
		d.other = obj
		return nil
	}
	// A head variable bound to a whole tuple: its attributes are the
	// decree, and the copy just made is what the relation may keep.
	d.built = tup
	d.attrs = append(d.attrs, tup.Attrs()...)
	d.vals = append(d.vals, tup.Values()...)
	return nil
}

// Put implements attrPutter.
func (d *decree) Put(attr string, val object.Object) {
	for i, a := range d.attrs {
		if a == attr {
			d.vals[i] = val
			return
		}
	}
	d.attrs = append(d.attrs, attr)
	d.vals = append(d.vals, val)
}

// hash is the decree's support hash: insensitive to attribute order, as
// tuple equality is, and computed without building the tuple.
func (d *decree) hash() uint64 {
	if d.other != nil {
		return d.other.Hash()
	}
	acc := uint64(len(d.attrs))
	for i, a := range d.attrs {
		acc += object.PairHash(object.AttrHash(a), d.vals[i])
	}
	return acc
}

// equal reports whether the decree equals the stored decree o.
func (d *decree) equal(o object.Object) bool {
	if d.other != nil {
		return d.other.Equal(o)
	}
	t, ok := o.(*object.Tuple)
	if !ok || t.Len() != len(d.attrs) {
		return false
	}
	subsumes, _ := matchAttrs(d.attrs, d.vals, t)
	return subsumes
}

// object returns the decree as an object the relation may keep.
func (d *decree) object() object.Object {
	switch {
	case d.other != nil:
		return d.other
	case d.built != nil:
		return d.built
	}
	return d.tuple()
}

// tuple builds the tuple decree's attributes into a fresh tuple.
func (d *decree) tuple() *object.Tuple {
	tup := object.NewTupleCap(len(d.attrs))
	for i, a := range d.attrs {
		tup.Put(a, d.vals[i])
	}
	return tup
}

// compatible reports whether every attribute of t is absent from the
// decree or equal.
func (d *decree) compatible(t *object.Tuple) bool {
	for i, a := range t.Attrs() {
		if j := slices.Index(d.attrs, a); j >= 0 && !d.vals[j].Equal(t.Values()[i]) {
			return false
		}
	}
	return true
}

// merge adds t's attributes missing from the decree and reports
// whether there were any.
func (d *decree) merge(t *object.Tuple) bool {
	n := len(d.attrs)
	for i, a := range t.Attrs() {
		if !slices.Contains(d.attrs[:n], a) {
			d.attrs = append(d.attrs, a)
			d.vals = append(d.vals, t.Values()[i])
		}
	}
	return len(d.attrs) > n
}

// matchAttrs reports how elem stands to a decree: subsumes when it
// carries every decreed attribute with the decreed value, compatible
// when every decreed attribute is absent from it or equal.
func matchAttrs(attrs []string, vals []object.Object, elem *object.Tuple) (subsumes, compatible bool) {
	subsumes = true
	for i, attr := range attrs {
		have, has := elem.Get(attr)
		switch {
		case !has:
			subsumes = false
		case !have.Equal(vals[i]):
			return false, false
		}
	}
	return subsumes, true
}

// unboundHeadName rewords an unbound path variable the way make-true
// reports it.
func unboundHeadName(err error) error {
	var ub *unboundError
	if errors.As(err, &ub) {
		return fmt.Errorf("core: head attribute variable %s is unbound", ub.Var)
	}
	return err
}

// folder folds key groups into their elements, reusing its buffers
// across groups.
type folder struct {
	parts  []decree // first-fit elements under construction
	sorted []*object.Tuple
	out    []*object.Tuple
}

// fold is make-true over one group: the elements its decrees (in
// placement order) make true. An element equal to one of prev, the
// group's current elements, is returned as that tuple, and one made of
// a lone decree as the decree's, so an unchanged group allocates nothing
// and changes nothing. The result is valid until the next fold.
func (f *folder) fold(decrees, prev []*object.Tuple) []*object.Tuple {
	if len(decrees) > 1 && sameNames(decrees) {
		// Distinct decrees over one attribute set disagree somewhere, so
		// none is compatible with another: each is an element. This is
		// the wide group of a head with no constant attribute, `=T`.
		return append(f.out[:0], decrees...)
	}
	if f.firstFit(decrees) > 1 {
		// A conflict: place the decrees again in canonical order.
		f.sorted = append(f.sorted[:0], decrees...)
		slices.SortFunc(f.sorted, func(a, b *object.Tuple) int { return a.Compare(b) })
		f.firstFit(f.sorted)
	}
	f.out = f.out[:0]
	for i := range f.parts {
		p := &f.parts[i]
		elem := p.built
		if j := slices.IndexFunc(prev, func(t *object.Tuple) bool { return p.equal(t) }); j >= 0 {
			elem = prev[j]
		} else if elem == nil {
			elem = p.tuple()
		}
		f.out = append(f.out, elem)
	}
	return f.out
}

// sameNames reports whether every decree carries the first one's
// attribute names.
func sameNames(decrees []*object.Tuple) bool {
	for _, d := range decrees[1:] {
		if d.Len() != decrees[0].Len() {
			return false
		}
		for _, a := range d.Attrs() {
			if !decrees[0].Has(a) {
				return false
			}
		}
	}
	return true
}

// firstFit places decrees, in the given order, each into the first part
// it is compatible with, and returns the number of parts. A part made of
// one decree keeps that decree's tuple in built.
func (f *folder) firstFit(decrees []*object.Tuple) int {
	f.parts = f.parts[:0]
	for _, d := range decrees {
		placed := false
		for i := range f.parts {
			if p := &f.parts[i]; p.compatible(d) {
				if p.merge(d) {
					p.built = nil
				}
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if len(f.parts) < cap(f.parts) {
			f.parts = f.parts[:len(f.parts)+1]
		} else {
			f.parts = append(f.parts, decree{})
		}
		p := &f.parts[len(f.parts)-1]
		p.attrs = append(p.attrs[:0], d.Attrs()...)
		p.vals = append(p.vals[:0], d.Values()...)
		p.built = d
	}
	return len(f.parts)
}

// viewTarget is one derived relation's decrees with their support. Tuple
// decrees are grouped by their values of key, the attributes every head
// that may feed the relation decrees under constant names; each group
// owns the elements make-true folds its decrees into.
type viewTarget struct {
	k        relKey
	key      []string
	supports map[uint64]*support // hash chains through support.next
	groups   map[uint64]*viewGroup
	touched  bool // listed in maintainer.touched
}

// support is one decree and the number of live rule rows decreeing it.
type support struct {
	decree object.Object
	hash   uint64
	n      int
	group  *viewGroup // nil for a decree that is not a tuple
	next   *support
}

// viewGroup is one key group: its live tuple decrees in placement order
// and the elements they fold into.
type viewGroup struct {
	target  *viewTarget
	rep     *object.Tuple // carries the group's key values
	members []*support
	elems   []*object.Tuple
	dirty   bool // listed in maintainer.dirty
	next    *viewGroup
	// inline and elem hold members and elems while a group has at most
	// two members and one element, which most groups never outgrow.
	inline [2]*support
	elem   [1]*object.Tuple
}

// find returns d's support record, or nil.
func (t *viewTarget) find(d *decree, h uint64) *support {
	for s := t.supports[h]; s != nil; s = s.next {
		if s.hash == h && d.equal(s.decree) {
			return s
		}
	}
	return nil
}

func (t *viewTarget) add(s *support) {
	s.next = t.supports[s.hash]
	t.supports[s.hash] = s
}

func (t *viewTarget) drop(s *support) {
	p := t.supports[s.hash]
	if p == s {
		if s.next == nil {
			delete(t.supports, s.hash)
		} else {
			t.supports[s.hash] = s.next
		}
	} else {
		for p.next != s {
			p = p.next
		}
		p.next = s.next
	}
}

// keyHash hashes tup's key values.
func (t *viewTarget) keyHash(tup *object.Tuple) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, a := range t.key {
		h *= 31
		if v, ok := tup.Get(a); ok {
			h += v.Hash()
		}
	}
	return h
}

// sameKey reports whether a and b agree on every key attribute.
func (t *viewTarget) sameKey(a, b *object.Tuple) bool {
	for _, attr := range t.key {
		va, aok := a.Get(attr)
		vb, bok := b.Get(attr)
		if aok != bok || aok && !va.Equal(vb) {
			return false
		}
	}
	return true
}

// group returns tup's key group, creating it when there is none.
func (t *viewTarget) group(tup *object.Tuple) *viewGroup {
	h := t.keyHash(tup)
	for g := t.groups[h]; g != nil; g = g.next {
		if t.sameKey(g.rep, tup) {
			return g
		}
	}
	g := &viewGroup{target: t, rep: tup, next: t.groups[h]}
	g.members, g.elems = g.inline[:0], g.elem[:0]
	t.groups[h] = g
	return g
}

func (t *viewTarget) dropGroup(g *viewGroup) {
	h := t.keyHash(g.rep)
	p := t.groups[h]
	if p == g {
		if g.next == nil {
			delete(t.groups, h)
		} else {
			t.groups[h] = g.next
		}
		return
	}
	for p.next != g {
		p = p.next
	}
	p.next = g.next
}

// targetKey is the key of derived relation k: the constant attributes of
// every head that may decree into it.
func (e *Engine) targetKey(k relKey) []string {
	var key []string
	first := true
	for _, r := range e.rules {
		if !r.target.mayTarget(k) {
			continue
		}
		if first {
			key, first = r.target.consts, false
			continue
		}
		var common []string
		for _, a := range key {
			if slices.Contains(r.target.consts, a) {
				common = append(common, a)
			}
		}
		key = common
	}
	return key
}
