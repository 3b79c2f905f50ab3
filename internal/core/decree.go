package core

import (
	"errors"
	"fmt"

	"idl/internal/object"
)

// Make-true (§6), indexed. A decree is what a rule head's set expression
// asserts for one body substitution: "some element of this set satisfies
// the (ground, simple) expression". It is realised with minimal change:
//
//  1. If an element already subsumes the decree (has every decreed
//     attribute with the decreed value), nothing changes.
//  2. Otherwise, if an element is *compatible* — every decreed attribute
//     is either absent from it or already equal — the decree merges into
//     that element (first such element in insertion order).
//  3. Otherwise a fresh element is inserted.
//
// The merge step is what makes the paper's §6 claims come out: the dbC
// rule `.dbC.r+(.date=D, .S=P) ← .dbI.p(…)` folds every stock of one day
// into a single chwab-style row, while a conflicting value (a price
// discrepancy) is incompatible and lands in its own tuple — "both prices
// are in the user's view". The paper's own recursive definition of
// make-true is in the unavailable technical memo [KLK90]; this reading is
// the one under which §6's integration-transparency examples hold.
//
// A decree that is not a tuple (an atom or a set) has no attributes to
// subsume or merge on and is simply added.
//
// The decreeSink answers the three questions from a per-target-set index
// instead of scanning the set per decree. It lives for one materialize
// call and is never stored on an object.Set: sets are shared by pointer
// with pinned MVCC snapshots, whose readers must not see (or race with)
// writer-side bookkeeping. The overlay it fills is fresh, so no snapshot
// shares its sets yet; a write maintains the overlay by delta instead
// (maintain.go).

// decreeSink drives compiled rule heads into the derived overlay for one
// materialization.
type decreeSink struct {
	targets map[*object.Set]*targetSet
	d       decree // the one builder every tuple decree is assembled in
	// candidates counts elements inspected while placing decrees.
	candidates int
}

func newDecreeSink() *decreeSink {
	return &decreeSink{targets: make(map[*object.Set]*targetSet)}
}

// applyRows makes rule's head true once per row, in enumeration order
// (the order make-true merges into host tuples is observable, so it must
// match the sequential order exactly), and returns how many decrees
// changed the overlay.
func (s *decreeSink) applyRows(rule *compiledRule, derived *object.Tuple, rows *rowSet) (int, error) {
	changed := 0
	for i := 0; i < rows.len(); i++ {
		n, err := s.apply(rule.head, derived, rows.row(i))
		changed += n
		if err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// apply is make-true over a compiled head: navigate-or-create down the
// head and place the decree. It returns the number of overlay changes (0
// when the fact already held, which is what lets the fixpoint
// terminate).
func (s *decreeSink) apply(n *headNode, obj object.Object, row []object.Object) (int, error) {
	switch n.kind {
	case headTuple:
		tup, ok := obj.(*object.Tuple)
		if !ok {
			return 0, fmt.Errorf("core: make-true of tuple expression on %s object", obj.Kind())
		}
		total := 0
		for _, c := range n.kids {
			k, err := s.apply(c, tup, row)
			total += k
			if err != nil {
				return total, err
			}
		}
		return total, nil

	case headAttr:
		tup, ok := obj.(*object.Tuple)
		if !ok {
			return 0, fmt.Errorf("core: make-true of attribute expression on %s object", obj.Kind())
		}
		name, err := n.name.resolve(row, "head attribute variable")
		if err != nil {
			return 0, unboundHeadName(err)
		}
		val, ok := tup.Get(name)
		if !ok {
			val = emptyFor(n.src.Expr)
			if val == nil {
				return 0, fmt.Errorf("core: cannot infer object kind for head expression %q", n.src.Expr.String())
			}
			tup.Put(name, val)
		}
		kid := n.kids[0]
		if set, isSet := val.(*object.Set); isSet {
			t := s.target(set)
			if kid.kind == headSet {
				return s.decree(t, kid.elem, row)
			}
			val = t.set
		}
		return s.apply(kid, val, row)

	case headSet:
		// Reached only off a non-set object: sets arrive through headAttr.
		return 0, fmt.Errorf("core: make-true of set expression on %s object", obj.Kind())

	default:
		return 0, n.err
	}
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

// target returns the sink's record for set.
func (s *decreeSink) target(set *object.Set) *targetSet {
	if t := s.targets[set]; t != nil {
		return t
	}
	t := newTargetSet(set)
	s.targets[set] = t
	return t
}

// decree builds the element tmpl decrees under row and places it in t.
func (s *decreeSink) decree(t *targetSet, tmpl *elemTemplate, row []object.Object) (int, error) {
	d := &s.d
	d.reset()
	if tmpl.kind == tmplTuple {
		if err := tmpl.fill(d, row); err != nil {
			return 0, err
		}
	} else {
		obj, err := tmpl.build(row)
		if err != nil {
			return 0, err
		}
		tup, isTuple := obj.(*object.Tuple)
		if !isTuple {
			if t.set.Add(obj) {
				return 1, nil
			}
			return 0, nil
		}
		// A head variable bound to a whole tuple: its attributes are the
		// decree, and the copy just made is what an insert stores.
		d.built = tup
		tup.Each(func(attr string, val object.Object) bool {
			d.Put(attr, val)
			return true
		})
	}
	return t.place(d, &s.candidates), nil
}

// decree is a tuple decree under construction: its attributes in source
// order.
type decree struct {
	attrs []string
	vals  []object.Object
	built *object.Tuple // the decree as an already-built tuple, when it arrived as one
}

func (d *decree) reset() {
	d.attrs, d.vals, d.built = d.attrs[:0], d.vals[:0], nil
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

// tuple returns the decree as a tuple the set may keep.
func (d *decree) tuple() *object.Tuple {
	if d.built != nil {
		return d.built
	}
	tup := object.NewTupleCap(len(d.attrs))
	for i, a := range d.attrs {
		tup.Put(a, d.vals[i])
	}
	return tup
}

// match reports how elem stands to the decree: subsumes when it carries
// every decreed attribute with the decreed value, compatible when every
// decreed attribute is absent from it or equal.
func (d *decree) match(elem *object.Tuple) (subsumes, compatible bool) {
	return matchAttrs(d.attrs, d.vals, elem)
}

// matchAttrs is decree.match over any attribute list.
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

// decreeEntry is one tuple element of a target set. The entry, not the
// element or its slot in the set, is the index's stable identity: a
// merge replaces elem with the merged clone and moves the entry to the
// end of the insertion order, and Set.compact renumbers slots freely.
type decreeEntry struct {
	elem *object.Tuple
	seq  int // rank in the set's insertion order
}

// attrIndex partitions a target set's tuple elements by one attribute.
type attrIndex struct {
	byValue map[uint64][]*decreeEntry // value hash → entries carrying the attribute with such a value
	lacking map[*decreeEntry]struct{} // entries without the attribute
}

// targetSet is one (db, rel) set decrees land in, with its decree index.
// Attributes are indexed on first use by a decree, so a set that already
// holds elements costs one pass per decreed attribute, not one per
// decree.
type targetSet struct {
	set     *object.Set
	entries []*decreeEntry
	attrs   map[string]*attrIndex
	nextSeq int
}

func newTargetSet(set *object.Set) *targetSet {
	t := &targetSet{set: set, attrs: make(map[string]*attrIndex)}
	set.Each(func(elem object.Object) bool {
		if tup, ok := elem.(*object.Tuple); ok {
			t.newEntry(tup)
		}
		return true
	})
	return t
}

func (t *targetSet) newEntry(elem *object.Tuple) *decreeEntry {
	en := &decreeEntry{elem: elem, seq: t.nextSeq}
	t.nextSeq++
	t.entries = append(t.entries, en)
	return en
}

func (t *targetSet) indexFor(attr string) *attrIndex {
	ix := t.attrs[attr]
	if ix == nil {
		ix = &attrIndex{byValue: make(map[uint64][]*decreeEntry), lacking: make(map[*decreeEntry]struct{})}
		for _, en := range t.entries {
			ix.add(en, attr)
		}
		t.attrs[attr] = ix
	}
	return ix
}

func (ix *attrIndex) add(en *decreeEntry, attr string) {
	if v, ok := en.elem.Get(attr); ok {
		h := v.Hash()
		ix.byValue[h] = append(ix.byValue[h], en)
	} else {
		ix.lacking[en] = struct{}{}
	}
}

// place realises the decree in the set and reports whether the set
// changed (1) or an element already subsumed it (0). Any element that
// subsumes or could host the decree either carries the probed attribute
// with an equal value — Hash is consistent with Equal — or lacks it, so
// the probed attribute's two lists hold every candidate; the decree
// attribute with the fewest is the one probed.
func (t *targetSet) place(d *decree, candidates *int) int {
	if len(d.attrs) == 0 {
		// The empty decree: any tuple element subsumes it.
		if len(t.entries) > 0 {
			return 0
		}
		t.insert(d)
		return 1
	}
	var probe *attrIndex
	var bucket []*decreeEntry
	for i, attr := range d.attrs {
		ix := t.indexFor(attr)
		b := ix.byValue[d.vals[i].Hash()]
		if probe == nil || len(b)+len(ix.lacking) < len(bucket)+len(probe.lacking) {
			probe, bucket = ix, b
		}
	}
	var host *decreeEntry
	for _, en := range bucket {
		*candidates++
		subsumes, compatible := d.match(en.elem)
		if subsumes {
			return 0
		}
		if compatible && (host == nil || en.seq < host.seq) {
			host = en
		}
	}
	for en := range probe.lacking {
		*candidates++
		if _, compatible := d.match(en.elem); compatible && (host == nil || en.seq < host.seq) {
			host = en
		}
	}
	if host == nil {
		t.insert(d)
	} else {
		t.merge(host, d)
	}
	return 1
}

func (t *targetSet) insert(d *decree) {
	tup := d.tuple()
	t.set.Add(tup)
	en := t.newEntry(tup)
	for attr, ix := range t.attrs {
		ix.add(en, attr)
	}
}

// merge folds the decree's missing attributes into host. The merge lands
// on a clone re-added under its new hash: the original element is never
// mutated — an older MVCC snapshot may still reach it through a pre-COW
// copy of this set.
func (t *targetSet) merge(host *decreeEntry, d *decree) {
	t.set.Remove(host.elem)
	merged := object.NewTupleCap(host.elem.Len() + len(d.attrs))
	host.elem.Each(func(attr string, val object.Object) bool {
		merged.Put(attr, val.Clone())
		return true
	})
	for i, attr := range d.attrs {
		if merged.Has(attr) {
			continue
		}
		merged.Put(attr, d.vals[i])
		ix := t.attrs[attr]
		delete(ix.lacking, host)
		h := d.vals[i].Hash()
		ix.byValue[h] = append(ix.byValue[h], host)
	}
	t.set.Add(merged)
	host.elem = merged
	host.seq = t.nextSeq
	t.nextSeq++
}
