package object

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is an ordered collection of attribute/object pairs with unique
// attribute names (paper §3). Insertion order is preserved for
// deterministic iteration and rendering, but equality, hashing and
// comparison are attribute-order insensitive ("the ordering of the
// attributes is immaterial because the attributes are named", §4.2).
//
// The zero value is an empty tuple ready for use. Tuples are mutable;
// Clone produces a deep copy.
type Tuple struct {
	attrs  []string
	values []Object
	index  map[string]int // attr -> position in attrs/values
	// names caches attrs as Str objects for Names. Atomic because readers
	// of a shared (published, hence unchanging) tuple may fill it
	// concurrently; a writer owns its tuple and drops the cache whenever
	// the attribute list changes.
	names atomic.Pointer[[]Object]
}

// NewTuple returns an empty tuple.
func NewTuple() *Tuple { return &Tuple{} }

// NewTupleCap returns an empty tuple with room for n attributes, for
// builders that know the arity up front.
func NewTupleCap(n int) *Tuple {
	return &Tuple{
		attrs:  make([]string, 0, n),
		values: make([]Object, 0, n),
		index:  make(map[string]int, n),
	}
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
func (t *Tuple) Len() int { return len(t.attrs) }

// Attrs returns the attribute names in insertion order. The caller must
// not modify the returned slice.
func (t *Tuple) Attrs() []string { return t.attrs }

// Names returns the attribute names as Str objects, parallel to Attrs —
// what a higher-order variable ranging over the tuple's attributes binds
// to. The slice is built on first use and handed out again until the
// attribute list changes, so enumerating a stored tuple's names boxes
// nothing. The caller must not modify it.
func (t *Tuple) Names() []Object {
	if p := t.names.Load(); p != nil {
		return *p
	}
	names := make([]Object, len(t.attrs))
	for i, a := range t.attrs {
		names[i] = Str(a)
	}
	t.names.Store(&names)
	return names
}

// attrsChanged drops the Names cache.
func (t *Tuple) attrsChanged() {
	if t.names.Load() != nil {
		t.names.Store(nil)
	}
}

// Values returns the attribute objects in insertion order, parallel to
// Attrs. The caller must not modify the returned slice.
func (t *Tuple) Values() []Object { return t.values }

// SortedAttrs returns the attribute names sorted lexicographically (a new
// slice; safe to modify).
func (t *Tuple) SortedAttrs() []string {
	out := make([]string, len(t.attrs))
	copy(out, t.attrs)
	sort.Strings(out)
	return out
}

// Get returns the object associated with attr, or (nil, false) when the
// attribute is absent.
func (t *Tuple) Get(attr string) (Object, bool) {
	if t.index == nil {
		return nil, false
	}
	i, ok := t.index[attr]
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
	if t.index == nil {
		t.index = make(map[string]int)
	}
	if i, ok := t.index[attr]; ok {
		t.values[i] = obj
		return
	}
	t.index[attr] = len(t.attrs)
	t.attrs = append(t.attrs, attr)
	t.values = append(t.values, obj)
	t.attrsChanged()
}

// Delete removes the attribute and its object, reporting whether it was
// present. Removal preserves the relative order of remaining attributes.
func (t *Tuple) Delete(attr string) bool {
	if t.index == nil {
		return false
	}
	i, ok := t.index[attr]
	if !ok {
		return false
	}
	copy(t.attrs[i:], t.attrs[i+1:])
	copy(t.values[i:], t.values[i+1:])
	t.attrs = t.attrs[:len(t.attrs)-1]
	t.values = t.values[:len(t.values)-1]
	delete(t.index, attr)
	t.attrsChanged()
	for j := i; j < len(t.attrs); j++ {
		t.index[t.attrs[j]] = j
	}
	return true
}

// Each calls fn for every attribute/object pair in insertion order,
// stopping early if fn returns false.
func (t *Tuple) Each(fn func(attr string, obj Object) bool) {
	for i, a := range t.attrs {
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
	if !ok || t.Len() != other.Len() {
		return false
	}
	for i, a := range t.attrs {
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
	for i, a := range t.attrs {
		entry := hashBytes(fnvOffset^0x7777, []byte(a))
		entry = hashUint64(entry, t.values[i].Hash())
		acc += entry // commutative combine
	}
	return hashUint64(fnvOffset^0x8888, acc) ^ uint64(len(t.attrs))
}

// Compare orders tuples by their sorted attribute lists, then by the
// corresponding values. It exists to give sets of tuples a deterministic
// canonical order for rendering and testing.
func (t *Tuple) Compare(o Object) int {
	if c, done := compareRanks(KindTuple, o); done {
		return c
	}
	other := o.(*Tuple)
	as, bs := t.SortedAttrs(), other.SortedAttrs()
	for i := 0; i < len(as) && i < len(bs); i++ {
		if c := strings.Compare(as[i], bs[i]); c != 0 {
			return c
		}
		av, _ := t.Get(as[i])
		bv, _ := other.Get(bs[i])
		if c := av.Compare(bv); c != 0 {
			return c
		}
	}
	switch {
	case len(as) < len(bs):
		return -1
	case len(as) > len(bs):
		return 1
	default:
		return 0
	}
}

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() Object {
	c := &Tuple{
		attrs:  make([]string, len(t.attrs)),
		values: make([]Object, len(t.values)),
		index:  make(map[string]int, len(t.index)),
	}
	copy(c.attrs, t.attrs)
	for i, v := range t.values {
		c.values[i] = v.Clone()
	}
	for k, v := range t.index {
		c.index[k] = v
	}
	return c
}

// String renders the tuple as (attr1:val1, attr2:val2, …) in insertion
// order.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range t.attrs {
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
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range t.SortedAttrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		v, _ := t.Get(a)
		b.WriteString(a)
		b.WriteByte(':')
		b.WriteString(canonicalString(v))
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
