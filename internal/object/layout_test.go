package object

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// modelTuple is the plain reference a tuple must agree with: a map and
// the insertion order of its keys.
type modelTuple struct {
	order []string
	vals  map[string]Object
}

func newModel() *modelTuple { return &modelTuple{vals: map[string]Object{}} }

func (m *modelTuple) put(a string, v Object) {
	if _, ok := m.vals[a]; !ok {
		m.order = append(m.order, a)
	}
	m.vals[a] = v
}

func (m *modelTuple) del(a string) bool {
	if _, ok := m.vals[a]; !ok {
		return false
	}
	delete(m.vals, a)
	m.order = slices.DeleteFunc(m.order, func(x string) bool { return x == a })
	return true
}

func (m *modelTuple) clone() *modelTuple {
	c := newModel()
	for _, a := range m.order {
		c.put(a, m.vals[a])
	}
	return c
}

func (m *modelTuple) sorted() []string {
	s := slices.Clone(m.order)
	sort.Strings(s)
	return s
}

func (m *modelTuple) equal(o *modelTuple) bool {
	if len(m.vals) != len(o.vals) {
		return false
	}
	for a, v := range m.vals {
		ov, ok := o.vals[a]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// hash is Tuple.Hash as it was computed before layouts, from names.
func (m *modelTuple) hash() uint64 {
	var acc uint64 = 0x5555aaaa5555aaaa
	for _, a := range m.order {
		acc += hashUint64(hashBytes(fnvOffset^0x7777, []byte(a)), m.vals[a].Hash())
	}
	return hashUint64(fnvOffset^0x8888, acc) ^ uint64(len(m.order))
}

func (m *modelTuple) compare(o *modelTuple) int {
	as, bs := m.sorted(), o.sorted()
	for i := 0; i < len(as) && i < len(bs); i++ {
		if c := strings.Compare(as[i], bs[i]); c != 0 {
			return c
		}
		if c := m.vals[as[i]].Compare(o.vals[bs[i]]); c != 0 {
			return c
		}
	}
	return len(as) - len(bs)
}

// render is String (str = Object.String, names in insertion order) and
// CanonicalString (canonicalString, names sorted) over the model.
func (m *modelTuple) render(names []string, str func(Object) string) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a + ":" + str(m.vals[a]))
	}
	return b.String() + ")"
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// layoutAttrs are few enough that tuples often share lists and many
// enough that insertion orders overflow the layout table.
var layoutAttrs = []string{"date", "stkCode", "clsPrice", "hp", "ibm", "sun", "dec", "a", "b", "c"}

// sites reads every attribute of layoutAttrs through one shared site per
// name, whatever layouts the tuples it meets have.
var sites = make([]Site, len(layoutAttrs))

// checkTuple holds t to its model m on every read.
func checkTuple(t *testing.T, step int, tup *Tuple, m *modelTuple) {
	t.Helper()
	if !slices.Equal(tup.Attrs(), m.order) {
		t.Fatalf("step %d: Attrs %v, model %v", step, tup.Attrs(), m.order)
	}
	if tup.Len() != len(m.order) || len(tup.Names()) != len(m.order) {
		t.Fatalf("step %d: Len %d, %d names, model %d", step, tup.Len(), len(tup.Names()), len(m.order))
	}
	for i, n := range tup.Names() {
		if n != Str(m.order[i]) {
			t.Fatalf("step %d: Names[%d] = %v, model %q", step, i, n, m.order[i])
		}
	}
	for i, a := range layoutAttrs {
		want, wok := m.vals[a]
		got, ok := tup.Get(a)
		sgot, sok := tup.Lookup(&sites[i], a)
		if ok != wok || sok != wok || wok && (!got.Equal(want) || !sgot.Equal(want)) {
			t.Fatalf("step %d: %s: Get (%v, %v), Lookup (%v, %v), model (%v, %v)", step, a, got, ok, sgot, sok, want, wok)
		}
	}
	if got, want := tup.Hash(), m.hash(); got != want {
		t.Fatalf("step %d: Hash %x, pre-layout formula %x", step, got, want)
	}
	if got, want := tup.String(), m.render(m.order, Object.String); got != want {
		t.Fatalf("step %d: String %q, model %q", step, got, want)
	}
	if got, want := tup.CanonicalString(), m.render(m.sorted(), canonicalString); got != want {
		t.Fatalf("step %d: CanonicalString %q, model %q", step, got, want)
	}
	if got, want := tup.SortedAttrs(), m.sorted(); !slices.Equal(got, want) {
		t.Fatalf("step %d: SortedAttrs %v, model %v", step, got, want)
	}
}

// freshLayoutTable empties the layout table but for the root, and puts
// it back as it was when tb ends, so a test that fills the table leaves
// the tests after it the table they would have had. The table is a
// cache: no answer depends on what it holds.
func freshLayoutTable(tb testing.TB) {
	layouts.mu.Lock()
	defer layouts.mu.Unlock()
	var saved [len(layouts.slots)]*Layout
	for i := range layouts.slots {
		saved[i] = layouts.slots[i].Swap(nil)
	}
	n, edges := layouts.n.Swap(1), rootLayout.edges.Swap(nil)
	layouts.slots[rootLayout.key&(2*layoutTableCap-1)].Store(rootLayout)
	tb.Cleanup(func() {
		layouts.mu.Lock()
		defer layouts.mu.Unlock()
		for i := range layouts.slots {
			layouts.slots[i].Store(saved[i])
		}
		layouts.n.Store(n)
		rootLayout.edges.Store(edges)
	})
}

// fillLayoutTable interns one-name lists until the table is full.
func fillLayoutTable() {
	for i := 0; layouts.n.Load() < layoutTableCap; i++ {
		LayoutOf([]string{fmt.Sprintf("fill%d", i)})
	}
}

// TestTupleLayoutsAgreeWithModel drives random Put, Delete, Clone and
// NewTupleOf sequences over a pool of tuples until the layout table has
// overflowed and beyond, holding every tuple to a map-plus-slice model
// on Get, Lookup, Attrs order, Names, Equal, Hash (bit for bit against
// the pre-layout formula), Compare, String and CanonicalString.
func TestTupleLayoutsAgreeWithModel(t *testing.T) {
	freshLayoutTable(t)
	r := rand.New(rand.NewSource(36))
	const pool = 16
	tups := make([]*Tuple, pool)
	models := make([]*modelTuple, pool)
	for i := range tups {
		tups[i], models[i] = NewTuple(), newModel()
	}
	val := func() Object {
		switch r.Intn(5) {
		case 0:
			return Str(layoutAttrs[r.Intn(len(layoutAttrs))])
		case 1:
			return Float(float64(r.Intn(4)))
		case 2:
			return TupleOf("x", r.Intn(2))
		default:
			return Int(r.Intn(4))
		}
	}
	afterFull := 0
	for step := 0; afterFull < 20000; step++ {
		if step > 2_000_000 {
			t.Fatalf("layout table still not full after %d steps (%d layouts)", step, layouts.n.Load())
		}
		if layouts.n.Load() >= layoutTableCap {
			afterFull++
		}
		i := r.Intn(pool)
		tup, m := tups[i], models[i]
		switch op := r.Intn(20); {
		case op < 10:
			a, v := layoutAttrs[r.Intn(len(layoutAttrs))], val()
			tup.Put(a, v)
			m.put(a, v)
		case op < 17:
			a := layoutAttrs[r.Intn(len(layoutAttrs))]
			if got, want := tup.Delete(a), m.del(a); got != want {
				t.Fatalf("step %d: Delete(%s) = %v, model %v", step, a, got, want)
			}
		case op < 19:
			j := r.Intn(pool)
			tups[j], models[j] = tup.Clone().(*Tuple), m.clone()
			checkTuple(t, step, tups[j], models[j])
		default:
			j := r.Intn(pool)
			n := r.Intn(len(layoutAttrs))
			attrs := make([]string, n)
			vals := make([]Object, n)
			nm := newModel()
			for k := range attrs {
				attrs[k], vals[k] = layoutAttrs[r.Intn(len(layoutAttrs))], val()
				nm.put(attrs[k], vals[k])
			}
			tups[j], models[j] = NewTupleOf(attrs, vals), nm
			checkTuple(t, step, tups[j], nm)
		}
		checkTuple(t, step, tup, m)
		j := r.Intn(pool)
		if got, want := tup.Equal(tups[j]), m.equal(models[j]); got != want {
			t.Fatalf("step %d: Equal %v, model %v:\n%s\n%s", step, got, want, tup.CanonicalString(), tups[j].CanonicalString())
		}
		if got, want := sign(tup.Compare(tups[j])), sign(m.compare(models[j])); got != want {
			t.Fatalf("step %d: Compare %d, model %d:\n%s\n%s", step, got, want, tup.CanonicalString(), tups[j].CanonicalString())
		}
	}
}

// TestWideTuplesArePrivate: a list longer than layoutMaxArity is never
// interned, and a tuple over it still reads, clones and changes like
// any other — including its clone, which must not share its layout.
func TestWideTuplesArePrivate(t *testing.T) {
	n := layoutMaxArity + 6
	attrs := make([]string, n)
	vals := make([]Object, n)
	for i := range attrs {
		attrs[i], vals[i] = fmt.Sprintf("stk%03d", n-i), Int(i)
	}
	if LayoutOf(attrs) != nil {
		t.Fatalf("a %d-attribute list was interned", n)
	}
	w := NewTupleOf(attrs, vals)
	m := newModel()
	for i, a := range attrs {
		m.put(a, vals[i])
	}
	c := w.Clone().(*Tuple)
	w.Put("zz", Int(-1))
	w.Delete("stk010")
	m.put("zz", Int(-1))
	m.del("stk010")
	if !slices.Equal(w.Attrs(), m.order) || w.Hash() != m.hash() || w.CanonicalString() != m.render(m.sorted(), canonicalString) {
		t.Fatalf("wide tuple diverges from its model:\n%s\n%s", w.CanonicalString(), m.render(m.sorted(), canonicalString))
	}
	if c.Len() != n || !c.Has("stk010") || c.Has("zz") {
		t.Fatalf("the clone changed with its original: %s", c)
	}
	var s Site
	for i := 0; i < 3; i++ {
		if v, ok := w.Lookup(&s, "zz"); !ok || !v.Equal(Int(-1)) {
			t.Fatalf("Lookup on a private layout: %v, %v", v, ok)
		}
	}
	if s.last.Load() != nil {
		t.Fatal("a site cached a private layout")
	}
}

// TestLayoutsConcurrentTransitions: goroutines building tuples along
// the same and different insertion orders at once intern one layout per
// list, and every tuple reads back what it was given (run under -race).
func TestLayoutsConcurrentTransitions(t *testing.T) {
	freshLayoutTable(t)
	var wg sync.WaitGroup
	out := make([][]*Tuple, 4)
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g % 2)))
			var site Site
			for i := 0; i < 200; i++ {
				tup := NewTuple()
				for _, k := range r.Perm(5) {
					tup.Put(layoutAttrs[k], Int(k))
				}
				if v, ok := tup.Lookup(&site, "clsPrice"); !ok || !v.Equal(Int(2)) {
					t.Errorf("Lookup(clsPrice) = %v, %v", v, ok)
					return
				}
				out[g] = append(out[g], tup)
			}
		}(g)
	}
	wg.Wait()
	for i := range out[0] {
		if a, b := out[0][i], out[2][i]; a.l != b.l {
			t.Fatalf("tuple %d: one insertion order, two layouts", i)
		}
	}
}

// TestFullTableTakesNoLock: once the table is full, building a tuple
// over a list it lacks — by Put, by NewTupleOf or by LayoutOf — neither
// waits for the table's mutex nor interns anything, and the tuple reads
// back what it was given.
func TestFullTableTakesNoLock(t *testing.T) {
	freshLayoutTable(t)
	fillLayoutTable()
	layouts.mu.Lock()
	defer layouts.mu.Unlock()
	done := make(chan string, 1)
	go func() {
		attrs := []string{"date", "stkCode", "clsPrice"}
		byPut := TupleOf("date", 1, "stkCode", "hp", "clsPrice", 3)
		byPut.Delete("stkCode")
		byPut.Put("stkCode", Str("hp"))
		built := NewTupleOf(attrs, []Object{Int(1), Str("hp"), Int(3)})
		switch {
		case LayoutOf(attrs) != nil:
			done <- "LayoutOf interned a list into a full table"
		case !built.Equal(byPut) || built.Hash() != byPut.Hash() || built.Compare(byPut) != 0:
			done <- fmt.Sprintf("over private layouts: %s and %s differ", built, byPut)
		default:
			done <- ""
		}
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("building over a full table waited for the table's mutex")
	}
	if got := layouts.n.Load(); got != layoutTableCap {
		t.Fatalf("a full table grew to %d layouts", got)
	}
}
