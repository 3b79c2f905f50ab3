package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// referenceMakeTrue is make-true by its definition (DESIGN.md §4), kept
// linear as the oracle for one key group: the decree *set* — duplicates
// collapse, order is immaterial — in canonical order, each tuple decree
// merging into the first element it is compatible with or else starting
// a new one; a decree that is not a tuple is a member as it is.
func referenceMakeTrue(decrees []object.Object) *object.Set {
	out := object.NewSet()
	uniq := object.NewSet()
	for _, d := range decrees {
		uniq.Add(d)
	}
	var elems []*object.Tuple
	for _, d := range uniq.SortedElems() {
		tup, ok := d.(*object.Tuple)
		if !ok {
			out.Add(d)
			continue
		}
		placed := false
		for i, el := range elems {
			if _, compatible := matchAttrs(tup.Attrs(), tup.Values(), el); compatible {
				merged := el.Clone().(*object.Tuple)
				tup.Each(func(attr string, val object.Object) bool {
					if !merged.Has(attr) {
						merged.Put(attr, val)
					}
					return true
				})
				elems[i], placed = merged, true
				break
			}
		}
		if !placed {
			elems = append(elems, tup)
		}
	}
	for _, el := range elems {
		out.Add(el)
	}
	return out
}

// randDecreeValue draws from a domain small enough that decrees collide:
// equal values (subsumption, merges), conflicting ones (fresh tuples),
// Int/Float pairs that are Equal across kinds, and aggregate values.
func randDecreeValue(r *rand.Rand) object.Object {
	switch r.Intn(12) {
	case 0:
		return object.Float(float64(r.Intn(3))) // Equal to the Int of the same value
	case 1:
		return object.Str(fmt.Sprintf("s%d", r.Intn(3)))
	case 2:
		return object.TupleOf("n", r.Intn(2))
	case 3:
		return object.SetOf(r.Intn(2), "x")
	case 4:
		return object.Null{}
	default:
		return object.Int(r.Intn(3))
	}
}

// randDecree draws a decree: mostly tuples over a few attribute names
// (so some elements lack a decreed attribute), sometimes the empty
// tuple, sometimes a non-tuple target.
func randDecree(r *rand.Rand, attrs int) object.Object {
	switch r.Intn(20) {
	case 0:
		return object.NewTuple()
	case 1:
		return object.Int(r.Intn(4))
	case 2:
		return object.SetOf(r.Intn(3))
	}
	t := object.NewTuple()
	for n := 1 + r.Intn(3); n > 0; n-- {
		t.Put(fmt.Sprintf("a%d", r.Intn(attrs)), randDecreeValue(r))
	}
	return t
}

// TestDecreeIndexMatchesReferenceScan replays seeded random decree
// streams through the view engine's group fold — the real head program
// for `.v.r+(=T)`, whose key is empty, so the whole relation is one
// group — and through the reference: a source relation gains and loses
// decrees as elements, each change reaches the view as a captured delta
// (every few steps an uncaptured one, refreshing from empty), and after
// every refresh the view must equal referenceMakeTrue over the source.
// No source element may be touched: merges land on fresh tuples.
func TestDecreeIndexMatchesReferenceScan(t *testing.T) {
	deltas, steps := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		attrs := 2 + r.Intn(10)
		e := NewEngine()
		src := object.NewSet()
		if seed%2 == 0 {
			for i := r.Intn(25); i > 0; i-- {
				src.Add(randDecree(r, attrs))
			}
		}
		db := object.NewTuple()
		db.Put("s", src)
		e.Base().Put("src", db)
		e.Invalidate()
		mustRule(t, e, ".v.r+(=T) <- .src.s(=T)")
		text := map[object.Object]string{}
		for step := 40 + r.Intn(200); step > 0; step-- {
			if _, err := e.DerivedOverlay(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if e.LastRecompute().Delta {
				deltas++
			}
			steps++
			want := referenceMakeTrue(src.Elems())
			got := object.NewSet()
			if v, ok := e.derived.Get("v"); ok {
				rel, _ := v.(*object.Tuple).Get("r")
				got = rel.(*object.Set)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d: view diverges from the reference\nsource:    %s\nview:      %s\nreference: %s",
					seed, src.CanonicalString(), got.CanonicalString(), want.CanonicalString())
			}
			e.mu.Lock()
			if elems := src.Elems(); len(elems) > 0 && r.Intn(3) == 0 {
				d := elems[r.Intn(len(elems))]
				src.Remove(d)
				e.views.pending.change(relKey{"src", "s"}, d, false, src.Len())
			} else {
				d := randDecree(r, attrs)
				if src.Add(d) {
					text[d] = d.String()
					e.views.pending.change(relKey{"src", "s"}, d, true, src.Len())
				}
			}
			e.markDirty(r.Intn(8) != 0)
			e.mu.Unlock()
		}
		for d, s := range text {
			if d.String() != s {
				t.Fatalf("seed %d: source element mutated: %s → %s", seed, s, d)
			}
		}
	}
	if deltas < steps/2 {
		t.Errorf("only %d of %d refreshes took the delta path", deltas, steps)
	}
}

// TestDecreeCandidatesScaleWithBucketNotSet is the count-based guard on
// make-true's work in a refresh from empty: over the stock rules, growing
// every layout 15× (120 → 1 800 facts) must not grow the supports and
// group members consulted per derived fact with it. A make-true that
// scans the target set grows them ~15×. Both arms — every price
// distinct, and the generator's price walks, whose few hundred distinct
// prices saturate at 1 800 facts — must stay within their bounds.
// Counts repeat exactly, so neither bound can flake.
func TestDecreeCandidatesScaleWithBucketNotSet(t *testing.T) {
	perFact := func(stockCount, days int, distinctPrices bool) (float64, int) {
		ds := stocks.Generate(stocks.Config{Stocks: stockCount, Days: days, Seed: 11})
		if distinctPrices {
			for s := range ds.Price {
				for d := range ds.Price[s] {
					ds.Price[s][d] = 1000*(s+1) + d
					ds.ChwabPrice[s][d] = ds.Price[s][d]
				}
			}
		}
		e := stockViewEngineOn(t, ds, DefaultOptions())
		if _, err := e.DerivedOverlay(); err != nil {
			t.Fatal(err)
		}
		st := e.LastRecompute()
		if st.FactsDerived == 0 || st.DecreeCandidates == 0 {
			t.Fatalf("%d×%d: nothing derived or inspected: %+v", stockCount, days, st)
		}
		return float64(st.DecreeCandidates) / float64(st.FactsDerived), st.FactsDerived
	}
	for _, arm := range []struct {
		name           string
		distinctPrices bool
		maxGrowth      float64
	}{
		{"distinct prices", true, 2},
		{"price walks", false, 7.5},
	} {
		small, smallFacts := perFact(8, 15, arm.distinctPrices)
		large, largeFacts := perFact(30, 60, arm.distinctPrices)
		if got := float64(largeFacts) / float64(smallFacts); got < 14 {
			t.Fatalf("%s: facts grew %.1f×, want ~15× (%d → %d)", arm.name, got, smallFacts, largeFacts)
		}
		if large >= arm.maxGrowth*small {
			t.Errorf("%s: candidates per derived fact grew %.2f → %.2f (≥ %.1f×) while facts grew 15×: make-true is scanning sets, not buckets", arm.name, small, large, arm.maxGrowth)
		}
		t.Logf("%s: candidates per derived fact %.2f at 120 facts/layout, %.2f at 1 800", arm.name, small, large)
	}
}

// TestPlusBuildsForHeadsAndRequests pins §5.2's "+exp" construction
// from both of its callers: each head below is made true by a view
// refresh and, as a set plus, by an update request under the same
// bindings, and both must build the relation recorded beside it or fail
// with the error recorded there (a refresh names the failing rule in
// front of it, under one "core:" prefix). A head's relation name is resolved by the head alone,
// under its own wording; those heads run through a refresh only.
func TestPlusBuildsForHeadsAndRequests(t *testing.T) {
	const body = ".src.s(.x=X, .y=Y, .a=A, .n=N, .u~(=U)), .src.t(=T)"
	engine := func() *Engine {
		e := NewEngine()
		src := object.NewTuple()
		// U stays unbound: its attribute is null, which no `=U` matches.
		src.Put("s", object.SetOf(object.TupleOf("x", 4, "y", 2.5, "a", "attr", "n", 7, "u", object.Null{})))
		src.Put("t", object.SetOf(object.TupleOf("k", 1, "nested", object.SetOf(1, 2))))
		e.Base().Put("src", src)
		e.Invalidate()
		return e
	}
	// relation renders .v.r of u, or the error that stopped it.
	relation := func(u *object.Tuple, err error) string {
		if err != nil {
			return err.Error()
		}
		if db, ok := u.Get("v"); ok {
			if r, ok := db.(*object.Tuple).Get("r"); ok {
				return r.String()
			}
		}
		return "no relation v.r"
	}
	refresh := func(head string) (got, prefix string) {
		r, err := parser.ParseRule(head + " <- " + body)
		if err != nil {
			t.Fatalf("parse %s: %v", head, err)
		}
		e := engine()
		if err := e.AddRule(r); err != nil {
			t.Fatalf("%s: %v", head, err)
		}
		return relation(e.DerivedOverlay()), fmt.Sprintf("core: rule %q: ", r.String())
	}
	for _, c := range []struct{ head, want string }{
		{".v.r+(.a=X, .b=Y)", "{(a:4, b:2.5)}"},
		{".v.r+(.a=X+1, .b=X*Y, .c=X-Y)", "{(a:5, b:10.0, c:1.5)}"},
		{".v.r+(.A=X, .lit=7)", "{(attr:4, lit:7)}"},
		{".v.r+(.a=X, .a=Y)", "{(a:2.5)}"},                                            // repeated name: the later value wins
		{".v.r+(.a(.b=X, .c(.d=Y)))", "{(a:{(b:4, c:{(d:2.5)})})}"},                   // nested sets of tuples
		{".v.r+(.members(.m=X), .none())", "{(members:{(m:4)}, none:{})}"},            // nested set with an element; nested empty set
		{".v.r+(=T)", "{(k:1, nested:{1, 2})}"},                                       // aggregate value, deep-copied
		{".v.r+(=X)", "{4}"},                                                          // atom
		{".v.r+()", "{()}"},                                                           // ε: the empty tuple
		{".v.r+(.a=U)", `insert expression "=U" is undefined: variable U is unbound`}, // unbound value variable
		{".v.r+(.U=X)", `insert expression ".U=X" is undefined: variable U is unbound`},
		{".v.r+(.N=X)", "core: attribute variable N bound to non-string 7"},
		{".v.r+(.a=A+1)", "core: arithmetic + on non-numeric operands attr and 1"},
	} {
		got, prefix := refresh(c.head)
		want := c.want
		if want[0] != '{' {
			want = prefix + strings.TrimPrefix(want, "core: ")
		}
		if got != want {
			t.Errorf("refresh %s:\n got %s\nwant %s", c.head, got, want)
		}
		e := engine()
		e.Base().Put("v", object.NewTuple())
		q, err := parser.ParseQuery("?" + body + ", " + c.head)
		if err != nil {
			t.Fatalf("parse request %s: %v", c.head, err)
		}
		_, err = e.Execute(q)
		if got := relation(e.Base(), err); got != c.want {
			t.Errorf("request %s:\n got %s\nwant %s", c.head, got, c.want)
		}
	}
	for _, c := range []struct {
		head, want string
		err        bool
	}{
		{".v.N+(.a=X)", "head attribute variable N bound to non-string 7", true},
		{".v.U+(.a=X)", "head attribute variable U is unbound", true},
		{".v.A+(.a=X)", "no relation v.r", false}, // v.attr holds the element
	} {
		got, prefix := refresh(c.head)
		want := c.want
		if c.err {
			want = prefix + want
		}
		if got != want {
			t.Errorf("refresh %s:\n got %s\nwant %s", c.head, got, want)
		}
	}
}

// TestMakeTrueIsOrderFree: a derived overlay is a function of the base
// universe and the rule set — not of the order the rules were registered
// in, nor of the order base elements were inserted in. The data carries
// price discrepancies, so dbC.r holds conflicted groups (two prices for
// one (date, stock)), and the recursive reach pair runs over a cyclic
// edge relation.
func TestMakeTrueIsOrderFree(t *testing.T) {
	rules := append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...)
	rules = append(rules, stocks.RulePnew,
		".dbR.reach+(.a=X, .b=Y) <- .g.e(.a=X, .b=Y)",
		".dbR.reach+(.a=X, .b=Z) <- .dbR.reach(.a=X, .b=Y), .g.e(.a=Y, .b=Z)",
	)
	overlay := func(seed int64) *object.Tuple {
		r := rand.New(rand.NewSource(seed))
		u, _ := stocks.Universe(stocks.Config{Stocks: 5, Days: 6, Seed: 7, Discrepancies: 8})
		g := object.NewTuple()
		g.Put("e", object.SetOf(object.TupleOf("a", 1, "b", 2), object.TupleOf("a", 2, "b", 3),
			object.TupleOf("a", 3, "b", 1), object.TupleOf("a", 3, "b", 4)))
		u.Put("g", g)
		e := NewEngine()
		u.Each(func(db string, v object.Object) bool {
			shuffled := object.NewTuple()
			v.(*object.Tuple).Each(func(rel string, rv object.Object) bool {
				if set, ok := rv.(*object.Set); ok && seed != 0 {
					elems := set.Elems()
					r.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
					shuffledSet := object.NewSet()
					for _, el := range elems {
						shuffledSet.Add(el)
					}
					rv = shuffledSet
				}
				shuffled.Put(rel, rv)
				return true
			})
			e.Base().Put(db, shuffled)
			return true
		})
		e.Invalidate()
		perm := r.Perm(len(rules))
		if seed == 0 {
			perm = identityOrder(len(rules))
		}
		for _, i := range perm {
			mustRule(t, e, rules[i])
		}
		derived, err := e.DerivedOverlay()
		if err != nil {
			t.Fatal(err)
		}
		return derived
	}
	want := overlay(0)
	conflicted := false
	dbC, _ := want.Get("dbC")
	dates := map[string]int{}
	rel, _ := dbC.(*object.Tuple).Get("r")
	rel.(*object.Set).Each(func(el object.Object) bool {
		d, _ := el.(*object.Tuple).Get("date")
		if dates[d.String()]++; dates[d.String()] > 1 {
			conflicted = true
		}
		return true
	})
	if !conflicted {
		t.Fatal("no dbC.r group holds a conflict; raise Discrepancies")
	}
	for seed := int64(1); seed <= 12; seed++ {
		if got := overlay(seed); !got.Equal(want) {
			t.Fatalf("seed %d: the overlay depends on rule or element order\ngot  %s\nwant %s", seed, got.CanonicalString(), want.CanonicalString())
		}
	}
}
