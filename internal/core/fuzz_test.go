package core

import (
	"fmt"
	"strings"
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/parser"
)

// FuzzEvalQuery cross-checks evaluation modes on arbitrary read-only
// queries: sequential cold-compiled evaluation (a plan per query, cache
// off) is the oracle, and parallel (3 workers), cached (epoch-keyed plan
// cache, exercised twice per input so the second run hits) and traced
// (per-conjunct probes over the cached plan), sibling (a cached plan
// compiled for the query with every value literal perturbed — the plan
// a statement of the same shape left behind — then run with the query's
// own literals) and noindex (UseIndex off: every set expression scans)
// evaluation must each either fail identically or answer
// byte-identically. A written pair — one cached engine, one cold — then
// runs the query around a write generated from the input and around its
// undo, the cached engine reusing or recompiling the plan it left behind:
// the two must answer in the same raw row order, not only the same
// canonical rendering. Every input also runs its plan's step programs
// beside the reference scheduler (sched_ref_test.go): same raw rows, same
// Stats, same error text. This is the fuzzing arm of the differential layer —
// the table-driven equivalence tests in parallel_test.go pin known query
// shapes, the fuzzer searches for shapes nobody thought to pin.
//
// All engines are built once per process: queries are read-only (update
// bodies are skipped), so evaluation never mutates the fixture, and the
// written pair's every write is undone before the next input.
func FuzzEvalQuery(f *testing.F) {
	seeds := []string{
		// Paper-style queries over the three stock schemas (E1–E6 shapes).
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.chwab.r(.S>200)",
		"?.ource.S(.clsPrice>200)",
		"?.euter.r(.date=D,.stkCode=hp,.clsPrice=P), .euter.r~(.stkCode=hp, .clsPrice>P)",
		"?.chwab.r(.date=D, .hp=H, .ibm=I), H>60, I>150",
		"?.X.Y, X = ource",
		// Derived relations materialized by the fixture rules.
		"?.dbI.p(.stk=S, .price>150)",
		"?.dbI.hi(.stk=S)",
		// The partitioned big relation: scans, joins, negation, self-join.
		"?.big.r(.stkCode=S, .clsPrice>150)",
		"?.big.r(.stkCode=S)",
		"?.big.r(.date=D,.stkCode=S,.clsPrice=P), .big.r~(.date=D, .clsPrice>P)",
		"?.big.r(.date=D, .stkCode=S, .clsPrice=P), .euter.r(.date=D, .clsPrice=P)",
		// Expression evaluation and constraint-only conjuncts.
		"?.big.r(.stkCode=S, .clsPrice=(100+50))",
		"?.euter.r(.clsPrice=P), P > 100, P < 200",
		// Error shape: an expression naming its own operand.
		"?.big.r(.stkCode=S, .clsPrice=(S + 1))",
		// Index probes on two keys at once, and a join whose literals
		// vary under the sibling variant.
		"?.big.r(.stkCode=stk003, .date=3/2/85, .clsPrice=P)",
		"?.big.r(.date=3/1/85, .stkCode=S, .date=D)",
		"?.big.r(.date=D, .stkCode=stk001, .clsPrice=P), .euter.r(.date=D, .stkCode=hp, .clsPrice<P)",
		// Failing conjuncts only a scan reaches.
		"?.big.A(B=B, .a=0)",
		"?.big.r(.stkCode=s*0, .a=0)",
		// Update body (skipped) and garbage (parse error).
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
		"?.5 .x ( ) ;;; ~~~",
		// A cross product whose generated write (ource.hp grows) flips
		// its rank order: raw rows nest the other way after it.
		"?.ource.hp(.date=B, .clsPrice=P), .chwab.r(.date=E, .sun=Q)",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	oracle := fuzzEngine(f, Options{UseIndex: true, NoPlanCache: true})
	traced := fuzzEngine(f, Options{UseIndex: true})
	traced.SetTracer(obs.NewTracer(4))
	sibling := fuzzEngine(f, Options{UseIndex: true})
	variants := []struct {
		name string
		e    *Engine
		runs int // cached and traced run twice so run two serves from the plan cache
	}{
		{"parallel", fuzzEngine(f, Options{UseIndex: true, Workers: 3}), 1},
		{"cached", fuzzEngine(f, Options{UseIndex: true}), 2},
		{"traced", traced, 2},
		{"sibling", sibling, 1},
		{"noindex", fuzzEngine(f, Options{}), 1},
	}
	written := fuzzEngine(f, Options{UseIndex: true})
	writtenCold := fuzzEngine(f, Options{UseIndex: true, NoPlanCache: true})

	f.Fuzz(func(t *testing.T, src string) {
		// Bound the work per input: deep cross joins over the big relation
		// are legal but explode combinatorially, drowning the fuzzer.
		if len(src) > 150 {
			t.Skip("input too long")
		}
		q, err := parser.ParseQuery(src)
		if err != nil {
			return
		}
		if ast.HasUpdate(q.Body) {
			t.Skip("update body")
		}
		if len(q.Body.Conjuncts) > 3 {
			t.Skip("too many conjuncts")
		}
		if d := queryOracle(t, oracle, q); d != "" {
			t.Fatalf("step programs diverge from the reference scheduler for %q: %s", src, d)
		}
		sAns, sErr := oracle.Query(q)
		for _, v := range variants {
			if v.e == sibling {
				sibling.ClearPlanCache()
				sibling.Query(perturbLits(q)) // only its plan matters
			}
			for run := 0; run < v.runs; run++ {
				pAns, pErr := v.e.Query(q)
				if v.name == "noindex" && pErr != nil {
					// An error is raised where evaluation reaches it. A
					// scan reaches every element, a probe only its
					// candidates (`.big.A(B=B, .a=0)`: no element has an
					// a), and a scan may meet another failing element
					// first. So the scan must fail wherever the probe
					// fails (checked below), and may fail where it
					// answers, with an error of its own.
					continue
				}
				if (sErr == nil) != (pErr == nil) {
					t.Fatalf("error divergence for %q:\ncold: %v\n%s(run %d): %v", src, sErr, v.name, run, pErr)
				}
				if sErr != nil {
					if sErr.Error() != pErr.Error() {
						t.Fatalf("error text divergence for %q:\ncold: %v\n%s(run %d): %v", src, sErr, v.name, run, pErr)
					}
					continue
				}
				if s, p := sAns.String(), pAns.String(); s != p {
					t.Fatalf("answer divergence for %q:\ncold: %s\n%s(run %d): %s", src, clip(s), v.name, run, clip(p))
				}
			}
		}
		for _, w := range fuzzWrite(src) {
			written.Query(q) // leaves a plan compiled before the write
			for _, e := range []*Engine{written, writtenCold} {
				if _, err := e.Execute(mustParse(t, w)); err != nil {
					t.Fatalf("write %q: %v", w, err)
				}
			}
			wAns, wErr := writtenCold.Query(q)
			cAns, cErr := written.Query(q)
			if (wErr == nil) != (cErr == nil) || wErr != nil && wErr.Error() != cErr.Error() {
				t.Fatalf("error divergence for %q after %q:\ncold: %v\ncached: %v", src, w, wErr, cErr)
			}
			if wErr == nil {
				if s, p := rawRows(wAns), rawRows(cAns); s != p {
					t.Fatalf("raw row divergence for %q after %q (%s):\ncold: %s\ncached: %s", src, w, cAns.Plan.Cache, clip(s), clip(p))
				}
			}
		}
	})
}

// fuzzWrite generates a write from the input and its undo: 1 to 24 new
// elements of one of euter.r (9 elements), big.r (32), ource.hp (3) or
// chwab.r (3), so a two-conjunct plan's rank order may flip or hold. The
// new elements are dated 1999, past every fixture date, so the undo
// deletes exactly what the write added.
func fuzzWrite(src string) [2]string {
	h := uint32(2166136261)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint32(src[i])) * 16777619
	}
	n := 1 + int((h>>8)%24)
	var ins, del []string
	for i := range n {
		var el string
		switch d := fmt.Sprintf("1/%d/99", 1+i); h % 4 {
		case 0:
			el = fmt.Sprintf(".euter.r%%s(.date=%s, .stkCode=%s, .clsPrice=%d)", d, fixStocks[i%3], 100+i)
		case 1:
			el = fmt.Sprintf(".big.r%%s(.date=%s, .stkCode=stk%03d, .clsPrice=%d)", d, i%10, 20+i)
		case 2:
			el = fmt.Sprintf(".ource.hp%%s(.date=%s, .clsPrice=%d)", d, 50+i)
		default:
			el = fmt.Sprintf(".chwab.r%%s(.date=%s, .hp=%d, .ibm=%d, .sun=%d)", d, 50+i, 150+i, 200+i)
		}
		ins = append(ins, fmt.Sprintf(el, "+"))
		del = append(del, fmt.Sprintf(el, "-"))
	}
	return [2]string{"?" + strings.Join(ins, ", "), "?" + strings.Join(del, ", ")}
}

// fuzzEngine builds the shared fuzz fixture: the three stock databases,
// the partitioned big relation, and two rules so derived relations are
// in play.
func fuzzEngine(f *testing.F, opts Options) *Engine {
	f.Helper()
	e := NewEngineWithOptions(opts)
	buildStockBase(f, e)
	buildBigBase(f, e, 32)
	mustRule(f, e, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
	mustRule(f, e, ".dbI.hi+(.stk=S) <- .dbI.p(.stk=S, .price=P), P > 150")
	return e
}

// perturbLits returns a copy of q with every value-position literal
// moved: an int up by one, a string extended by "x", a date one day on.
// Attribute names stay: the copy has q's shape.
func perturbLits(q *ast.Query) *ast.Query {
	var term func(t ast.Term) ast.Term
	term = func(t ast.Term) ast.Term {
		switch x := t.(type) {
		case ast.Const:
			switch v := x.Value.(type) {
			case object.Int:
				return ast.Const{Value: v + 1}
			case object.Str:
				return ast.Const{Value: v + "x"}
			case object.Date:
				return ast.Const{Value: object.Date{Year: v.Year, Month: v.Month, Day: v.Day + 1}}
			}
		case ast.Arith:
			return ast.Arith{Op: x.Op, L: term(x.L), R: term(x.R)}
		}
		return t
	}
	var expr func(e ast.Expr) ast.Expr
	expr = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Not:
			return &ast.Not{X: expr(x.X)}
		case *ast.Atomic:
			return &ast.Atomic{Sign: x.Sign, Op: x.Op, Term: term(x.Term)}
		case *ast.Constraint:
			return &ast.Constraint{L: term(x.L), Op: x.Op, R: term(x.R)}
		case *ast.AttrExpr:
			return &ast.AttrExpr{Sign: x.Sign, Name: x.Name, Expr: expr(x.Expr)}
		case *ast.SetExpr:
			return &ast.SetExpr{Sign: x.Sign, X: expr(x.X)}
		case *ast.TupleExpr:
			out := &ast.TupleExpr{Conjuncts: make([]ast.Expr, len(x.Conjuncts))}
			for i, c := range x.Conjuncts {
				out.Conjuncts[i] = expr(c)
			}
			return out
		}
		return e
	}
	return &ast.Query{Body: expr(q.Body).(*ast.TupleExpr)}
}

// clip truncates long answer renderings in failure messages.
func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return strings.ReplaceAll(s, "\n", " ")
}
