package object

import (
	"math"
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindDate: "date",
		KindTuple: "tuple", KindSet: "set", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIsAtomic(t *testing.T) {
	for _, k := range []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindDate} {
		if !k.IsAtomic() {
			t.Errorf("%v should be atomic", k)
		}
	}
	for _, k := range []Kind{KindTuple, KindSet} {
		if k.IsAtomic() {
			t.Errorf("%v should not be atomic", k)
		}
	}
}

func TestAtomEquality(t *testing.T) {
	cases := []struct {
		a, b Object
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1.0), true},
		{Float(1.0), Int(1), true},
		{Float(1.5), Int(1), false},
		{Str("hp"), Str("hp"), true},
		{Str("hp"), Str("ibm"), false},
		{Str("1"), Int(1), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Bool(true), Int(1), false},
		{Null{}, Null{}, true},
		{Null{}, Int(0), false},
		{NewDate(85, 3, 3), NewDate(85, 3, 3), true},
		{NewDate(85, 3, 3), NewDate(85, 3, 4), false},
		{NewDate(1985, 3, 3), NewDate(85, 3, 3), true}, // 2-digit year normalization
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("symmetry: %v.Equal(%v) = %v, want %v", c.b, c.a, got, c.want)
		}
		if c.want && c.a.Hash() != c.b.Hash() {
			t.Errorf("equal objects %v and %v have different hashes", c.a, c.b)
		}
	}
}

func TestAtomCompare(t *testing.T) {
	cases := []struct {
		a, b Object
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{NewDate(85, 3, 3), NewDate(85, 3, 4), -1},
		{NewDate(85, 4, 1), NewDate(85, 3, 30), 1},
		{NewDate(86, 1, 1), NewDate(85, 12, 31), 1},
		{Bool(false), Bool(true), -1},
		{Null{}, Int(0), -1},   // null sorts before everything
		{Int(5), Str("a"), -1}, // numeric rank < string rank
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("antisymmetry: %v.Compare(%v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestComparable(t *testing.T) {
	cases := []struct {
		a, b Object
		want bool
	}{
		{Int(1), Float(2), true},
		{Str("a"), Str("b"), true},
		{NewDate(85, 1, 1), NewDate(86, 1, 1), true},
		{Int(1), Str("a"), false},
		{Null{}, Null{}, false},
		{Int(1), nil, false},
		{NewTuple(), NewTuple(), false},
	}
	for _, c := range cases {
		if got := Comparable(c.a, c.b); got != c.want {
			t.Errorf("Comparable(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAtomString(t *testing.T) {
	cases := []struct {
		o    Object
		want string
	}{
		{Null{}, "null"},
		{Bool(true), "true"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Float(50), "50.0"},
		{Str("hp"), "hp"},
		{Str("Has Cap"), `"Has Cap"`},
		{Str("null"), `"null"`},
		{Str("9lives"), `"9lives"`},
		{Str(""), `""`},
		{NewDate(85, 3, 3), "3/3/85"},
		{NewDate(2004, 12, 31), "12/31/4"},
		{Float(1e21), "1e+21"},
		{Float(-0.25), "-0.25"},
		{Int(-7), "-7"},
		{TupleOf("a", 1, "d", NewDate(85, 3, 3)), "(a:1, d:3/3/85)"},
		{SetOf("x"), "{x}"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.o, got, c.want)
		}
		// AppendString is String without the intermediate string.
		if got := string(AppendString([]byte("k="), c.o)); got != "k="+c.want {
			t.Errorf("AppendString(%#v) = %q, want %q", c.o, got, "k="+c.want)
		}
	}
}

// TestAtomCompareDoesNotAllocate: comparisons run once per sort step of
// every rendered answer and once per inequality test of every scanned
// element; boxing the receiver to ask its kind made each one allocate.
func TestAtomCompareDoesNotAllocate(t *testing.T) {
	pairs := [][2]Object{
		{Int(1 << 40), Int(1<<40 + 1)},
		{Float(2.5), Int(1 << 40)},
		{Str("hewlett"), Str("packard")},
		{NewDate(85, 3, 3), NewDate(85, 3, 4)},
		{Int(1 << 40), Str("x")},
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			if p[0].Compare(p[1]) >= 0 {
				t.Fatal("pairs are ascending")
			}
		}
	}); n != 0 {
		t.Errorf("Compare allocated %.1f times per run", n)
	}
}

// TestTupleNames: the boxed attribute names follow the attribute list
// through every mutation, and readers of a tuple that no longer changes
// may ask for them concurrently.
func TestTupleNames(t *testing.T) {
	check := func(tup *Tuple) {
		t.Helper()
		names := tup.Names()
		if len(names) != tup.Len() {
			t.Fatalf("Names has %d entries, tuple %d attributes", len(names), tup.Len())
		}
		for i, a := range tup.Attrs() {
			if names[i] != Object(Str(a)) || tup.Values()[i] == nil {
				t.Fatalf("Names[%d] = %v, attribute %q", i, names[i], a)
			}
		}
	}
	tup := NewTuple()
	check(tup)
	tup.Put("a", Int(1))
	tup.Put("b", Int(2))
	check(tup)
	tup.Put("a", Int(3)) // replaces a value: same names
	check(tup)
	tup.Put("c", Int(4))
	check(tup)
	tup.Delete("a")
	check(tup)
	tup.Put("a", Int(5)) // same length as before the delete, different order
	check(tup)
	check(tup.Clone().(*Tuple))

	shared := TupleOf("date", NewDate(85, 3, 3), "hp", 50, "ibm", 140, "sun", 201)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				names := shared.Names()
				if len(names) != 4 || names[3] != Object(Str("sun")) {
					t.Errorf("concurrent Names = %v", names)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := testing.AllocsPerRun(100, func() { _ = shared.Names() }); n != 0 {
		t.Errorf("Names on an unchanged tuple allocated %.1f times", n)
	}
}

func TestIntFloatHashAgreement(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 50, 200, math.MaxInt32} {
		if Int(n).Hash() != Float(float64(n)).Hash() {
			t.Errorf("Int(%d) and Float(%d) hash differently", n, n)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple()
	if tp.Len() != 0 {
		t.Fatalf("empty tuple Len = %d", tp.Len())
	}
	tp.Put("date", NewDate(85, 3, 3))
	tp.Put("stkCode", Str("hp"))
	tp.Put("clsPrice", Int(50))
	if tp.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tp.Len())
	}
	v, ok := tp.Get("stkCode")
	if !ok || !v.Equal(Str("hp")) {
		t.Fatalf("Get(stkCode) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Fatal("Get(missing) should report absent")
	}
	// Put replaces in place without reordering.
	tp.Put("stkCode", Str("ibm"))
	if got := tp.Attrs()[1]; got != "stkCode" {
		t.Fatalf("replace moved attribute: attrs = %v", tp.Attrs())
	}
	v, _ = tp.Get("stkCode")
	if !v.Equal(Str("ibm")) {
		t.Fatalf("after replace Get = %v", v)
	}
	if !tp.Delete("date") {
		t.Fatal("Delete(date) = false")
	}
	if tp.Delete("date") {
		t.Fatal("second Delete(date) = true")
	}
	if tp.Has("date") || tp.Len() != 2 {
		t.Fatalf("after delete: has=%v len=%d", tp.Has("date"), tp.Len())
	}
	// Index stays consistent after deletion.
	v, ok = tp.Get("clsPrice")
	if !ok || !v.Equal(Int(50)) {
		t.Fatalf("Get(clsPrice) after delete = %v, %v", v, ok)
	}
}

func TestTupleEqualityOrderInsensitive(t *testing.T) {
	a := TupleOf("x", 1, "y", 2)
	b := TupleOf("y", 2, "x", 1)
	if !a.Equal(b) {
		t.Error("tuples differing only in attribute order should be equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal tuples should hash equally")
	}
	c := TupleOf("x", 1, "y", 3)
	if a.Equal(c) {
		t.Error("tuples with different values should differ")
	}
	d := TupleOf("x", 1)
	if a.Equal(d) || d.Equal(a) {
		t.Error("tuples with different arity should differ")
	}
}

func TestTupleCompareCanonical(t *testing.T) {
	a := TupleOf("x", 1, "y", 2)
	b := TupleOf("y", 2, "x", 1)
	if a.Compare(b) != 0 {
		t.Error("order-insensitive equal tuples should compare 0")
	}
	c := TupleOf("x", 1, "y", 3)
	if a.Compare(c) >= 0 {
		t.Error("a should sort before c")
	}
	d := TupleOf("x", 1)
	if d.Compare(a) >= 0 {
		t.Error("shorter prefix tuple should sort first")
	}
}

func TestTupleClone(t *testing.T) {
	inner := SetOf(1, 2)
	a := NewTuple()
	a.Put("s", inner)
	c := a.Clone().(*Tuple)
	if !a.Equal(c) {
		t.Fatal("clone should be equal")
	}
	got, _ := c.Get("s")
	got.(*Set).Add(Int(3))
	if inner.Len() != 2 {
		t.Error("mutating clone affected original (shallow copy)")
	}
}

func TestTupleEachEarlyStop(t *testing.T) {
	tp := TupleOf("a", 1, "b", 2, "c", 3)
	var seen []string
	tp.Each(func(attr string, _ Object) bool {
		seen = append(seen, attr)
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Errorf("early stop visited %v", seen)
	}
}

func TestTupleOfPanics(t *testing.T) {
	assertPanics(t, func() { TupleOf("odd") })
	assertPanics(t, func() { TupleOf(1, 2) })
	assertPanics(t, func() { TupleOf("a", struct{}{}) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Len() != 0 || s.Contains(Int(1)) {
		t.Fatal("empty set misbehaves")
	}
	if !s.Add(Int(1)) || !s.Add(Int(2)) {
		t.Fatal("Add of new elements should return true")
	}
	if s.Add(Int(1)) {
		t.Fatal("duplicate Add should return false")
	}
	if s.Add(Float(2.0)) {
		t.Fatal("Float(2) duplicates Int(2) under value equality")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Remove(Int(1)) || s.Remove(Int(1)) {
		t.Fatal("Remove semantics broken")
	}
	if s.Len() != 1 || s.Contains(Int(1)) {
		t.Fatal("state after Remove wrong")
	}
}

func TestSetHeterogeneous(t *testing.T) {
	s := SetOf(1, "a", 2.5, TupleOf("x", 1))
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(TupleOf("x", 1)) {
		t.Error("structural membership failed")
	}
}

func TestSetRemoveWhere(t *testing.T) {
	s := SetOf(1, 2, 3, 4, 5)
	removed := s.RemoveWhere(func(o Object) bool {
		n, ok := o.(Int)
		return ok && n%2 == 0
	})
	if len(removed) != 2 || s.Len() != 3 {
		t.Fatalf("removed %v, remaining %d", removed, s.Len())
	}
	if s.Contains(Int(2)) || s.Contains(Int(4)) {
		t.Error("even elements should be gone")
	}
}

func TestSetCompaction(t *testing.T) {
	s := NewSet()
	const n = 200
	for i := 0; i < n; i++ {
		s.Add(Int(i))
	}
	for i := 0; i < n; i += 2 {
		s.Remove(Int(i))
	}
	if s.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", s.Len(), n/2)
	}
	for i := 1; i < n; i += 2 {
		if !s.Contains(Int(i)) {
			t.Fatalf("lost element %d after compaction", i)
		}
	}
	for i := 0; i < n; i += 2 {
		if s.Contains(Int(i)) {
			t.Fatalf("element %d should be removed", i)
		}
	}
}

func TestSetEqualityOrderInsensitive(t *testing.T) {
	a := SetOf(1, 2, 3)
	b := SetOf(3, 2, 1)
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Error("sets differing only in insertion order should be equal with equal hashes")
	}
	c := SetOf(1, 2)
	if a.Equal(c) {
		t.Error("sets of different cardinality should differ")
	}
	d := SetOf(1, 2, 4)
	if a.Equal(d) {
		t.Error("sets with different elements should differ")
	}
}

func TestSetClone(t *testing.T) {
	inner := TupleOf("x", 1)
	s := NewSet()
	s.Add(inner)
	c := s.Clone().(*Set)
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(Int(7))
	if s.Len() != 1 {
		t.Error("mutating clone affected original")
	}
}

func TestSetSortedElemsDeterministic(t *testing.T) {
	a := SetOf(3, 1, 2)
	b := SetOf(2, 3, 1)
	as, bs := a.SortedElems(), b.SortedElems()
	for i := range as {
		if !as[i].Equal(bs[i]) {
			t.Fatalf("sorted element order differs at %d: %v vs %v", i, as[i], bs[i])
		}
	}
	if a.CanonicalString() != "{1, 2, 3}" {
		t.Errorf("CanonicalString = %q", a.CanonicalString())
	}
}

func TestNestedCanonicalString(t *testing.T) {
	u := TupleOf("db", TupleOf("r", SetOf(TupleOf("b", 2, "a", 1))))
	want := "(db:(r:{(a:1, b:2)}))"
	if got := u.CanonicalString(); got != want {
		t.Errorf("CanonicalString = %q, want %q", got, want)
	}
}

func TestSetString(t *testing.T) {
	s := SetOf(1, 2)
	if got := s.String(); got != "{1, 2}" {
		t.Errorf("String = %q", got)
	}
	tp := TupleOf("name", "john", "sal", 10)
	if got := tp.String(); got != "(name:john, sal:10)" {
		t.Errorf("String = %q", got)
	}
}
