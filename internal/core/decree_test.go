package core

import (
	"fmt"
	"math/rand"
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// referenceMakeTrueInSet is the linear-scan make-true the decree index
// replaced, kept verbatim as the oracle: it realizes the decree "some
// element of this set satisfies the (ground, simple) expression that
// built target" with minimal change — subsume → no-op, else merge into
// the first compatible element in insertion order, else insert. It
// returns 1 if the set changed, 0 otherwise.
func referenceMakeTrueInSet(set *object.Set, target object.Object) int {
	tgt, isTuple := target.(*object.Tuple)
	if !isTuple {
		if set.Add(target) {
			return 1
		}
		return 0
	}
	var host *object.Tuple
	found := false
	set.Each(func(elem object.Object) bool {
		e, ok := elem.(*object.Tuple)
		if !ok {
			return true
		}
		compatible := true
		subsumes := true
		tgt.Each(func(attr string, want object.Object) bool {
			have, has := e.Get(attr)
			switch {
			case !has:
				subsumes = false
			case !have.Equal(want):
				subsumes = false
				compatible = false
				return false
			}
			return true
		})
		if subsumes {
			found = true
			return false
		}
		if compatible && host == nil {
			host = e
		}
		return true
	})
	if found {
		return 0
	}
	if host != nil {
		// Merge into a clone and re-add under the new hash: the original
		// element is never mutated — an older MVCC snapshot may still
		// reach it through a pre-COW copy of this set.
		set.Remove(host)
		h2, _ := host.Clone().(*object.Tuple)
		tgt.Each(func(attr string, want object.Object) bool {
			if !h2.Has(attr) {
				h2.Put(attr, want)
			}
			return true
		})
		set.Add(h2)
		return 1
	}
	set.Add(tgt)
	return 1
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
// sequences through the decree sink (the real head program for
// `.v.r+(=T)`, T bound to the decree) and through the reference scan,
// on fresh and on pre-populated sets, and demands the same elements in
// the same insertion order, the same change count per decree, and no
// pre-existing element touched (merges land on clones).
func TestDecreeIndexMatchesReferenceScan(t *testing.T) {
	rule, err := parser.ParseRule(".v.r+(=T) <- .src.s(=T)")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := compileRule(rule)
	if err != nil {
		t.Fatal(err)
	}
	compacted := false
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Few attribute names → long chains of merges into few hosts
		// (holes, then Set.compact); more names → wide heterogeneous sets.
		attrs := 2 + r.Intn(10)
		prepopulated := seed%2 == 0

		live := object.NewSet()
		if prepopulated {
			for i := r.Intn(25); i > 0; i-- {
				live.Add(randDecree(r, attrs))
			}
		}
		before := live.Elems()
		beforeText := make([]string, len(before))
		for i, e := range before {
			beforeText[i] = e.String()
		}
		ref := live.ShallowClone()

		v := object.NewTuple()
		v.Put("r", live)
		derived := object.NewTuple()
		derived.Put("v", v)
		sink := newDecreeSink()

		merges := 0
		steps := 40 + r.Intn(400)
		for step := 0; step < steps; step++ {
			decree := randDecree(r, attrs)
			refSize := ref.Len()
			want := referenceMakeTrueInSet(ref, cloneForStore(decree))
			if want == 1 && ref.Len() == refSize {
				merges++
			}
			rows := newRowSet(1)
			rows.add([]object.Object{decree})
			got, err := sink.applyRows(cr, derived, rows)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got != want {
				t.Fatalf("seed %d step %d: decree %s changed %d, reference %d", seed, step, decree, got, want)
			}
		}
		if got, want := live.String(), ref.String(); got != want {
			t.Fatalf("seed %d: sets diverge\nindexed:   %s\nreference: %s", seed, got, want)
		}
		for i, e := range before {
			if e.String() != beforeText[i] {
				t.Fatalf("seed %d: pre-existing element %d mutated: %s → %s", seed, i, beforeText[i], e)
			}
		}
		if merges > ref.Len()+17 {
			compacted = true // more holes than live elements and > 16 of them
		}
	}
	if !compacted {
		t.Error("no seed merged often enough to force Set.compact; widen the generator")
	}
}

// TestDecreeCandidatesScaleWithBucketNotSet is the count-based guard on
// the decree index: over the stock rules, growing every layout 15×
// (120 → 1 800 facts) must not grow the elements inspected per derived
// fact with it. A linear-scan make-true grows them ~15×. What the index
// inspects is the probed value bucket, so the guard has two arms: with
// every price distinct the buckets stay O(1) and so must the count
// (< 2×); with the generator's price walks, whose few hundred distinct
// prices saturate at 1 800 facts, the count follows the price bucket
// (1.6 → 5.5) and must still grow less than half as fast as the facts.
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

// TestHeadTemplateMatchesBuildPlus pins the compiled element template to
// the construction it compiles: for each head, the object the template
// builds from a positional row must equal what updater.buildPlus builds
// from the same bindings — or fail with the same error.
func TestHeadTemplateMatchesBuildPlus(t *testing.T) {
	bindings := map[string]object.Object{
		"X": object.Int(4),
		"Y": object.Float(2.5),
		"A": object.Str("attr"),
		"T": object.TupleOf("k", 1, "nested", object.SetOf(1, 2)),
		"N": object.Int(7), // a number where a name is wanted
	}
	for _, head := range []string{
		".v.r+(.a=X, .b=Y)",
		".v.r+(.a=X+1, .b=X*Y, .c=X-Y)",
		".v.r+(.A=X, .lit=7)",
		".v.r+(.a=X, .a=Y)",              // repeated name: the later value wins
		".v.r+(.a(.b=X, .c(.d=Y)))",      // nested sets of tuples
		".v.r+(.members(.m=X), .none())", // nested set with an element; nested empty set
		".v.r+(=T)",                      // aggregate value, deep-copied
		".v.r+(=X)",                      // atom
		".v.r+()",                        // ε: the empty tuple
		".v.r+(.a=U)",                    // unbound value variable
		".v.r+(.U=X)",                    // unbound name variable
		".v.r+(.N=X)",                    // name variable bound to a non-string
		".v.r+(.a=A+1)",                  // arithmetic on a string
	} {
		rule, err := parser.ParseRule(head + " <- .src.s(.x=X, .y=Y, .a=A, .n=N, .u~(=U)), .src.t(=T)")
		if err != nil {
			t.Fatalf("parse %s: %v", head, err)
		}
		cr, err := compileRule(rule)
		if err != nil {
			t.Fatalf("compile %s: %v", head, err)
		}
		// The request-side construction runs on the head resolved the way
		// an update request would be, under a substitution binding the
		// same variables.
		sc := newScope(cr.headVars)
		head := sc.resolveBody(rule.Head)
		row := make([]object.Object, len(cr.headVars))
		env := newEnv(sc.size())
		for i, v := range cr.headVars {
			if val, ok := bindings[v]; ok {
				row[i] = val
				env.Bind(sc.lookup(v), val)
			}
		}
		// The head's one set expression: .v → (.r → +( … )).
		set := cr.head.kids[0].kids[0].kids[0].kids[0]
		if set.kind != headSet {
			t.Fatalf("%s: expected a set decree at the end of the path, got kind %d", head, set.kind)
		}
		got, gotErr := set.elem.build(row)
		u := &updater{ev: &evaluator{unit: unit{an: &bodyAnalysis{sc: sc}, env: env}, stats: &Stats{}}, undo: &undoLog{}, result: &ExecResult{}}
		rel := head.Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
		want, wantErr := u.buildPlus(rel.Expr.(*ast.SetExpr).X)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%s: template error %v, buildPlus error %v", head, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: template error %q, buildPlus error %q", head, gotErr, wantErr)
			}
		case got.String() != want.String():
			t.Errorf("%s: template built %s, buildPlus built %s", head, got, want)
		}
	}
}
