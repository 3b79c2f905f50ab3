package core

import (
	"errors"
	"math/rand"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
)

// refEnv is the map-based substitution the slot Env replaced, kept as the
// reference for the property test: bindings by name, a trail of names.
type refEnv struct {
	bindings map[string]object.Object
	trail    []string
}

func (e *refEnv) bind(name string, val object.Object) {
	e.bindings[name] = val
	e.trail = append(e.trail, name)
}

func (e *refEnv) undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		delete(e.bindings, e.trail[i])
	}
	e.trail = e.trail[:mark]
}

// TestEnvMarkUndoMatchesMapReference drives the slot Env and the map
// reference through the same random bind / mark / undo / capture /
// re-enter sequences and compares every observable after every step.
func TestEnvMarkUndoMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		names := []string{"A", "B", "C", "D", "E", "F"}[:1+r.Intn(6)]
		sc := newScope(names)
		env := newEnv(sc.size())
		ref := &refEnv{bindings: map[string]object.Object{}}
		var marks []int
		var captured [][]object.Object // substitutions captured by all()
		agree := func(step int) {
			t.Helper()
			if env.Mark() != len(ref.trail) {
				t.Fatalf("seed %d step %d: Mark %d, reference %d", seed, step, env.Mark(), len(ref.trail))
			}
			for _, n := range names {
				got, ok := env.Lookup(sc.lookup(n))
				want, wok := ref.bindings[n]
				if ok != wok || ok != env.Bound(sc.lookup(n)) || ok && !got.Equal(want) {
					t.Fatalf("seed %d step %d: %s = %v (%v), reference %v (%v)", seed, step, n, got, ok, want, wok)
				}
			}
			for i, n := range names { // the output window is the first slots
				if w := env.window(len(names))[i]; (w == nil) != (ref.bindings[n] == nil) {
					t.Fatalf("seed %d step %d: window[%d] = %v, reference %v", seed, step, i, w, ref.bindings[n])
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(6) {
			case 0, 1: // bind an unbound variable
				n := names[r.Intn(len(names))]
				if _, bound := ref.bindings[n]; !bound {
					v := object.Int(r.Intn(100))
					env.Bind(sc.lookup(n), v)
					ref.bind(n, v)
				}
			case 2: // mark
				marks = append(marks, env.Mark())
			case 3: // undo to the innermost mark
				if len(marks) > 0 {
					m := marks[len(marks)-1]
					marks = marks[:len(marks)-1]
					env.Undo(m)
					ref.undo(m)
				}
			case 4: // capture the substitution, as the updater does
				captured = append(captured, append([]object.Object(nil), env.all()...))
			case 5: // retract to a mark, re-enter a captured extension of it, retract again
				if len(captured) == 0 {
					continue
				}
				mark := env.Mark()
				row := captured[r.Intn(len(captured))]
				compatible := true
				for slot, v := range row {
					if cur := env.all()[slot]; v != nil && cur != nil && !cur.Equal(v) {
						compatible = false
					}
				}
				if !compatible {
					continue
				}
				env.extend(row)
				for slot, v := range row {
					if v != nil {
						if got, ok := env.Lookup(int32(slot)); !ok || !got.Equal(v) {
							t.Fatalf("seed %d step %d: extend left slot %d = %v, want %v", seed, step, slot, got, v)
						}
					}
				}
				env.Undo(mark)
			}
			agree(step)
		}
		env.Undo(0)
		for slot, v := range env.all() {
			if v != nil {
				t.Fatalf("seed %d: slot %d still bound after Undo(0)", seed, slot)
			}
		}
	}
}

// TestEnvBindPanics: binding twice, or binding a variable no scope
// resolved, is a bug in the evaluator and panics rather than corrupting
// the substitution.
func TestEnvBindPanics(t *testing.T) {
	for name, slot := range map[string]int32{"rebind": 1, "unresolved": 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Bind did not panic", name)
				}
			}()
			env := newEnv(2)
			env.Bind(1, object.Int(1))
			env.Bind(slot, object.Int(2))
		}()
	}
}

// TestEvaluationRestoresSubstitution runs the evaluator directly over
// the shapes that extend and retract the substitution in nested ways —
// negation (exists), a set re-entered once per outer element, self
// joins, higher-order names, constraints that bind — and checks, at
// every emitted row, that exactly the variables bound so far are bound,
// and after the run (completed, stopped early, or failed) that the
// substitution is empty again and every scheduler frame is released.
func TestEvaluationRestoresSubstitution(t *testing.T) {
	e := newStockEngine(t)
	nested := object.NewTuple()
	nested.Put("r", object.SetOf(
		object.TupleOf("k", 1, "kids", object.SetOf(object.TupleOf("v", 1), object.TupleOf("v", 2))),
		object.TupleOf("k", 2, "kids", object.SetOf(object.TupleOf("v", 2), object.TupleOf("v", 3))),
		object.TupleOf("k", 3, "kids", object.SetOf()),
	))
	e.Base().Put("n", nested)
	e.Invalidate()
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"?.euter.r(.date=D, .stkCode=S, .clsPrice=P), .euter.r~(.date=D, .clsPrice>P)",
		"?.euter.r~(.clsPrice>P), .euter.r(.stkCode=S, .clsPrice=P)",  // negation deferred past its binder
		"?.n.r(.k=K, .kids(.v=V)), .n.r(.k=K2, .kids(.v=V)), K2 != K", // nested sets re-entered per outer element
		"?.n.r(.k=K, .kids~(.v=V)), .n.r(.kids(.v=V))",                // negated nested set
		"?.chwab.r(.date=D, .S=P), .ource.S(.date=D, .clsPrice=P)",
		"?.X.Y(.date=D), ~.X.Y(.date=D, .clsPrice>200)",
		"?.euter.r(.clsPrice=P, .stkCode=S), Q = P + 1, Q > 100",
		"?.euter.r(.clsPrice=P), P > Q", // unsafe: fails mid-enumeration
	} {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		key, lits := planKeyFor(q, e.opts)
		an := e.compilePlan(q, eff, key, e.epoch, nil).an.bind(lits)
		for _, stopAfter := range []int{-1, 1} {
			ev := newEvaluator(nil, an, e.opts, &Stats{})
			rows := 0
			err := ev.satisfy(an.body, eff, func() error {
				rows++
				for i, v := range ev.env.window(an.width) {
					if v == nil {
						t.Errorf("%s: answer variable %s unbound at an emitted row", src, an.output()[i])
					}
				}
				if rows == stopAfter {
					return errStop
				}
				return nil
			})
			if err != nil && !errors.Is(err, errStop) {
				var unsafe *UnsafeError
				if !errors.As(err, &unsafe) {
					t.Fatalf("%s: %v", src, err)
				}
			}
			if ev.env.Mark() != 0 {
				t.Errorf("%s (stop %d): trail holds %d bindings after the run", src, stopAfter, ev.env.Mark())
			}
			for slot, v := range ev.env.all() {
				if v != nil && an.sc.names[slot] != "" { // literal slots stay bound
					t.Errorf("%s (stop %d): %s still bound to %v after the run", src, stopAfter, an.sc.names[slot], v)
				}
			}
			for id, f := range ev.frames {
				if f.next != nil && f.left != len(f.used) {
					t.Errorf("%s (stop %d): frame %d not released (left=%d of %d)", src, stopAfter, id, f.left, len(f.used))
				}
				for _, u := range f.used {
					if u {
						t.Errorf("%s (stop %d): frame %d still marks a conjunct used", src, stopAfter, id)
					}
				}
			}
		}
	}
}

// scanEngine holds one relation of n distinct three-attribute tuples.
func scanEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine()
	r := object.NewSet()
	for i := 0; i < n; i++ {
		r.Add(object.TupleOf("date", fixDates[i%len(fixDates)], "k", 1000+i, "price", 1000+(i*37)%977))
	}
	db := object.NewTuple()
	db.Put("r", r)
	e.Base().Put("big", db)
	e.Invalidate()
	return e
}

// TestAllocationBudgets pins the evaluator's allocation behaviour: a
// scan costs a fixed set-up per evaluation and nothing per element it
// merely tests; a row it emits costs its share of the answer's chunked
// storage and nothing else. (Before slot resolution a scanned element
// cost ≈ 1.7 allocations — a used-mask and a closure per conjunct — and
// an emitted row a map, its buckets and a dedup entry.)
func TestAllocationBudgets(t *testing.T) {
	const n = 2000
	e := scanEngine(t, n)
	perRun := func(src string, wantRows int) float64 {
		t.Helper()
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := e.Query(q) // compiles and caches the plan
		if err != nil || ans.Len() != wantRows {
			t.Fatalf("%s: %d rows, err %v; want %d", src, ans.Len(), err, wantRows)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	filter := perRun("?.big.r(.k=K, .date=D, .price>5000)", 0) / n
	if filter > 0.25 {
		t.Errorf("filter scan emitting nothing: %.3f allocations per scanned element, budget 0.25", filter)
	}
	full := perRun("?.big.r(.k=K, .date=D, .price=P)", n) / n
	if full > 1.5 {
		t.Errorf("full three-variable scan: %.3f allocations per emitted row, budget 1.5", full)
	}
	// Rendering sorts and appends into one buffer: no allocation per row
	// or per value either.
	q, _ := parser.ParseQuery("?.big.r(.k=K, .date=D, .price=P)")
	ans, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	render := testing.AllocsPerRun(20, func() { _ = ans.String() }) / n
	if render > 0.05 {
		t.Errorf("canonical render: %.3f allocations per row, budget 0.05", render)
	}
	t.Logf("allocations: %.4f per scanned element, %.4f per emitted row, %.4f per rendered row", filter, full, render)
}
