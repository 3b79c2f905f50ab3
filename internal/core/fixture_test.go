package core

import (
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/parser"
)

// The test fixture mirrors the paper's three stock databases with a small
// deterministic data set. The same nine facts (3 stocks × 3 days) render
// into all three schemas:
//
//	euter: r{(date, stkCode, clsPrice)}          — stock as data
//	chwab: r{(date, hp, ibm, sun)}               — stock as attribute name
//	ource: hp{(date, clsPrice)}, ibm{…}, sun{…}  — stock as relation name
//
// Prices: hp 50,55,62 · ibm 140,155,160 · sun 201,210,150 over
// 3/1/85, 3/2/85, 3/3/85. So "closed above 200" is sun (days 1 and 2),
// "hp>60 and ibm>150 same day" is 3/3/85, hp's all-time high is 62 on
// 3/3/85, and the per-day winners are sun, sun, ibm.

var (
	fixDates  = []object.Date{object.NewDate(85, 3, 1), object.NewDate(85, 3, 2), object.NewDate(85, 3, 3)}
	fixStocks = []string{"hp", "ibm", "sun"}
	fixPrices = map[string][]int{
		"hp":  {50, 55, 62},
		"ibm": {140, 155, 160},
		"sun": {201, 210, 150},
	}
)

// buildStockBase populates the engine's base universe with the three
// databases.
func buildStockBase(t testing.TB, e *Engine) {
	t.Helper()
	u := e.Base()

	euterR := object.NewSet()
	for di, d := range fixDates {
		for _, s := range fixStocks {
			euterR.Add(object.TupleOf("date", d, "stkCode", s, "clsPrice", fixPrices[s][di]))
		}
	}
	euter := object.NewTuple()
	euter.Put("r", euterR)
	u.Put("euter", euter)

	chwabR := object.NewSet()
	for di, d := range fixDates {
		row := object.NewTuple()
		row.Put("date", d)
		for _, s := range fixStocks {
			row.Put(s, object.Int(fixPrices[s][di]))
		}
		chwabR.Add(row)
	}
	chwab := object.NewTuple()
	chwab.Put("r", chwabR)
	u.Put("chwab", chwab)

	ource := object.NewTuple()
	for _, s := range fixStocks {
		rel := object.NewSet()
		for di, d := range fixDates {
			rel.Add(object.TupleOf("date", d, "clsPrice", fixPrices[s][di]))
		}
		ource.Put(s, rel)
	}
	u.Put("ource", ource)

	e.Invalidate()
}

func newStockEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	buildStockBase(t, e)
	return e
}

// q runs a query string and returns the answer.
func q(t testing.TB, e *Engine, src string) *Answer {
	t.Helper()
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ans, err := e.Query(query)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return ans
}

// exec runs an update request string.
func exec(t testing.TB, e *Engine, src string) *ExecResult {
	t.Helper()
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := e.Execute(query)
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return res
}

// execErr runs an update request expecting an error.
func execErr(t testing.TB, e *Engine, src string) error {
	t.Helper()
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = e.Execute(query)
	if err == nil {
		t.Fatalf("execute %q: expected error", src)
	}
	return err
}

// mustRule registers a rule from source.
func mustRule(t testing.TB, e *Engine, src string) {
	t.Helper()
	r, err := parser.ParseRule(src)
	if err != nil {
		t.Fatalf("parse rule %q: %v", src, err)
	}
	if err := e.AddRule(r); err != nil {
		t.Fatalf("add rule %q: %v", src, err)
	}
}

// mustClause registers an update-program clause from source.
func mustClause(t testing.TB, e *Engine, src string) {
	t.Helper()
	c, err := parser.ParseClause(src)
	if err != nil {
		t.Fatalf("parse clause %q: %v", src, err)
	}
	if err := e.AddClause(c); err != nil {
		t.Fatalf("add clause %q: %v", src, err)
	}
}

// row builds a Row from alternating name/value pairs.
func row(pairs ...any) Row { return RowOf(pairs...) }

func toObj(v any) object.Object {
	switch x := v.(type) {
	case object.Object:
		return x
	case int:
		return object.Int(x)
	case float64:
		return object.Float(x)
	case string:
		return object.Str(x)
	case bool:
		return object.Bool(x)
	default:
		panic("toObj: unsupported")
	}
}

// relation fetches a relation set from the engine's base universe.
func relation(t testing.TB, e *Engine, db, rel string) *object.Set {
	t.Helper()
	dbObj, ok := e.Base().Get(db)
	if !ok {
		t.Fatalf("no database %s", db)
	}
	relObj, ok := dbObj.(*object.Tuple).Get(rel)
	if !ok {
		t.Fatalf("no relation %s.%s", db, rel)
	}
	return relObj.(*object.Set)
}

// parseClauseHelper parses a clause, returning parse errors instead of
// failing, for validation tests that accept either parse- or
// compile-level rejection.
func parseClauseHelper(src string) (*ast.Clause, error) {
	return parser.ParseClause(src)
}
