package object

import "strings"

// Tuple is an ordered collection of attribute/object pairs with unique
// attribute names (paper §3). Insertion order is preserved for
// deterministic iteration and rendering, but equality, hashing and
// comparison are attribute-order insensitive ("the ordering of the
// attributes is immaterial because the attributes are named", §4.2).
// A tuple is its attribute list's Layout and its values (layout.go).
//
// The zero value is an empty tuple ready for use. Tuples are mutable;
// Clone produces a deep copy.
type Tuple struct {
	l      *Layout // nil: the empty list
	values []Object
}

// NewTuple returns an empty tuple.
func NewTuple() *Tuple { return &Tuple{} }

// NewTupleCap returns an empty tuple with room for n attributes, for
// builders that know the arity up front.
func NewTupleCap(n int) *Tuple { return &Tuple{values: make([]Object, 0, n)} }

// layout returns t's layout, the root for a zero tuple.
func (t *Tuple) layout() *Layout {
	if t.l == nil {
		return rootLayout
	}
	return t.l
}

// TupleOf builds a tuple from alternating attribute-name / Object pairs.
// It panics on odd argument counts or non-string names; it is intended for
// tests and literals in examples.
func TupleOf(pairs ...any) *Tuple {
	if len(pairs)%2 != 0 {
		panic("object.TupleOf: odd number of arguments")
	}
	t := NewTuple()
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("object.TupleOf: attribute name must be a string")
		}
		t.Put(name, toObject(pairs[i+1]))
	}
	return t
}

// toObject converts convenient Go values to Objects for literal builders.
func toObject(v any) Object {
	switch x := v.(type) {
	case Object:
		return x
	case nil:
		return Null{}
	case bool:
		return Bool(x)
	case int:
		return Int(x)
	case int64:
		return Int(x)
	case float64:
		return Float(x)
	case string:
		return Str(x)
	default:
		panic("object: cannot convert value to Object")
	}
}

// Len returns the number of attributes.
func (t *Tuple) Len() int { return len(t.values) }

// Attrs returns the attribute names in insertion order. The caller must
// not modify the returned slice.
func (t *Tuple) Attrs() []string { return t.layout().attrs }

// Names returns the attribute names as Str objects, parallel to Attrs —
// what a higher-order variable ranging over the tuple's attributes binds
// to. The layout boxed them once for every tuple it holds. The caller
// must not modify the slice.
func (t *Tuple) Names() []Object { return t.layout().derived().names }

// Values returns the attribute objects in insertion order, parallel to
// Attrs. The caller must not modify the returned slice.
func (t *Tuple) Values() []Object { return t.values }

// SortedAttrs returns the attribute names sorted lexicographically (a new
// slice; safe to modify).
func (t *Tuple) SortedAttrs() []string {
	l := t.layout()
	sorted := l.derived().sorted
	out := make([]string, len(sorted))
	for k, i := range sorted {
		out[k] = l.attrs[i]
	}
	return out
}

// Get returns the object associated with attr, or (nil, false) when the
// attribute is absent.
func (t *Tuple) Get(attr string) (Object, bool) {
	if t.l == nil {
		return nil, false
	}
	i, ok := t.l.index[attr]
	if !ok {
		return nil, false
	}
	return t.values[i], true
}

// Has reports whether the attribute is present.
func (t *Tuple) Has(attr string) bool {
	_, ok := t.Get(attr)
	return ok
}

// Put associates attr with obj, replacing any existing association and
// otherwise appending the attribute.
func (t *Tuple) Put(attr string, obj Object) {
	l := t.layout()
	if i, ok := l.index[attr]; ok {
		t.values[i] = obj
		return
	}
	if l.owner == t {
		l.push(attr)
	} else {
		t.l = l.with(attr, t)
	}
	t.values = append(t.values, obj)
}

// Delete removes the attribute and its object, reporting whether it was
// present. Removal preserves the relative order of remaining attributes.
func (t *Tuple) Delete(attr string) bool {
	l := t.layout()
	i, ok := l.index[attr]
	if !ok {
		return false
	}
	if l.owner == t {
		l.remove(int(i))
	} else {
		t.l = l.without(attr, int(i), t)
	}
	copy(t.values[i:], t.values[i+1:])
	t.values[len(t.values)-1] = nil
	t.values = t.values[:len(t.values)-1]
	return true
}

// Each calls fn for every attribute/object pair in insertion order,
// stopping early if fn returns false.
func (t *Tuple) Each(fn func(attr string, obj Object) bool) {
	for i, a := range t.Attrs() {
		if !fn(a, t.values[i]) {
			return
		}
	}
}

func (t *Tuple) Kind() Kind { return KindTuple }

// Equal reports value equality: same attribute set, pairwise-equal
// objects, regardless of insertion order.
func (t *Tuple) Equal(o Object) bool {
	other, ok := o.(*Tuple)
	if !ok || len(t.values) != len(other.values) {
		return false
	}
	if t.l == other.l {
		for i, v := range t.values {
			if !v.Equal(other.values[i]) {
				return false
			}
		}
		return true
	}
	for i, a := range t.Attrs() {
		ov, ok := other.Get(a)
		if !ok || !t.values[i].Equal(ov) {
			return false
		}
	}
	return true
}

// Hash is attribute-order insensitive: it combines per-attribute entry
// hashes commutatively.
func (t *Tuple) Hash() uint64 {
	var acc uint64 = 0x5555aaaa5555aaaa
	if l := t.l; l != nil {
		if d := l.d.Load(); d != nil {
			for i, v := range t.values {
				acc += hashUint64(d.hashes[i], v.Hash()) // commutative combine
			}
		} else { // a private layout not read yet
			for i, v := range t.values {
				acc += hashUint64(nameHash(l.attrs[i]), v.Hash())
			}
		}
	}
	return hashUint64(fnvOffset^0x8888, acc) ^ uint64(len(t.values))
}

// Compare orders tuples by their sorted attribute lists, then by the
// corresponding values. It exists to give sets of tuples a deterministic
// canonical order for rendering and testing.
func (t *Tuple) Compare(o Object) int {
	if c, done := compareRanks(KindTuple, o); done {
		return c
	}
	other := o.(*Tuple)
	la, lb := t.layout(), other.layout()
	sa, sb := la.derived().sorted, lb.derived().sorted
	for k := 0; k < len(sa) && k < len(sb); k++ {
		i, j := sa[k], sb[k]
		if la != lb {
			if c := strings.Compare(la.attrs[i], lb.attrs[j]); c != 0 {
				return c
			}
		}
		if c := t.values[i].Compare(other.values[j]); c != 0 {
			return c
		}
	}
	switch {
	case len(sa) < len(sb):
		return -1
	case len(sa) > len(sb):
		return 1
	default:
		return 0
	}
}

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() Object {
	c := newTuple(t.l, len(t.values))
	for i, v := range t.values {
		c.values[i] = v.Clone()
	}
	if t.l != nil && t.l.owner == t {
		c.l = t.l.private(c)
	}
	return c
}

// String renders the tuple as (attr1:val1, attr2:val2, …) in insertion
// order.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range t.Attrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteByte(':')
		b.WriteString(t.values[i].String())
	}
	b.WriteByte(')')
	return b.String()
}

// CanonicalString renders the tuple with attributes in sorted order, for
// deterministic test assertions.
func (t *Tuple) CanonicalString() string {
	l := t.layout()
	var b strings.Builder
	b.WriteByte('(')
	for k, i := range l.derived().sorted {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.attrs[i])
		b.WriteByte(':')
		b.WriteString(canonicalString(t.values[i]))
	}
	b.WriteByte(')')
	return b.String()
}

func canonicalString(o Object) string {
	switch v := o.(type) {
	case *Tuple:
		return v.CanonicalString()
	case *Set:
		return v.CanonicalString()
	default:
		return o.String()
	}
}
