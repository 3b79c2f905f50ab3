package core

import (
	"strings"
	"testing"

	"idl/internal/ast"
	"idl/internal/obs"
	"idl/internal/parser"
)

// FuzzEvalQuery cross-checks evaluation modes on arbitrary read-only
// queries: sequential cold-compiled evaluation (a plan per query, cache
// off) is the oracle, and parallel (3 workers), cached (epoch-keyed plan
// cache, exercised twice per input so the second run hits) and traced
// (per-conjunct probes over the cached plan) evaluation must each either
// fail identically or answer
// byte-identically. This is the fuzzing arm of the differential layer —
// the table-driven equivalence tests in parallel_test.go pin known query
// shapes, the fuzzer searches for shapes nobody thought to pin.
//
// All engines are built once per process: queries are read-only (update
// bodies are skipped), so evaluation never mutates the fixture.
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
		// Update body (skipped) and garbage (parse error).
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
		"?.5 .x ( ) ;;; ~~~",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	oracle := fuzzEngine(f, Options{NoPlanCache: true})
	traced := fuzzEngine(f, Options{})
	traced.SetTracer(obs.NewTracer(4))
	variants := []struct {
		name string
		e    *Engine
		runs int // cached and traced run twice so run two serves from the plan cache
	}{
		{"parallel", fuzzEngine(f, Options{Workers: 3}), 1},
		{"cached", fuzzEngine(f, Options{}), 2},
		{"traced", traced, 2},
	}

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
		sAns, sErr := oracle.Query(q)
		for _, v := range variants {
			for run := 0; run < v.runs; run++ {
				pAns, pErr := v.e.Query(q)
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
	})
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

// clip truncates long answer renderings in failure messages.
func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return strings.ReplaceAll(s, "\n", " ")
}
