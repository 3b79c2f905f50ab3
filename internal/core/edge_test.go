package core

import (
	"strings"
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/parser"
)

// Edge-path coverage: constraint binding directions, arithmetic kinds,
// insert validation, merged-universe collisions, engine accessors.

func TestConstraintBindingDirections(t *testing.T) {
	e := newStockEngine(t)
	// Bind left from right.
	if ans := q(t, e, "?X = ource, .X.Y"); ans.Len() != 3 {
		t.Errorf("left-bind rows:\n%s", ans)
	}
	// Bind right from left (X already bound by enumeration).
	if ans := q(t, e, "?.X, X = euter"); ans.Len() != 1 {
		t.Errorf("filter rows:\n%s", ans)
	}
	// Var = Var with one side bound.
	if ans := q(t, e, "?.X, Y = X, .Y.r"); ans.Len() != 2 { // euter, chwab have r
		t.Errorf("var=var rows:\n%s", ans)
	}
	// NE and ordering constraints on bound values.
	if ans := q(t, e, "?.X, X != euter"); ans.Len() != 2 {
		t.Errorf("!= rows:\n%s", ans)
	}
	if ans := q(t, e, "?.euter.r(.clsPrice=P, .stkCode=S), P >= 201"); ans.Len() != 2 {
		t.Errorf(">= rows:\n%s", ans)
	}
}

func TestConstraintUnsafeBothUnbound(t *testing.T) {
	e := newStockEngine(t)
	query, err := parser.ParseQuery("?X = Y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err == nil {
		t.Error("X = Y with both unbound should be unsafe")
	}
	query, err = parser.ParseQuery("?X < 5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err == nil {
		t.Error("X < 5 with X unbound should be unsafe")
	}
}

func TestArithmeticKinds(t *testing.T) {
	e := NewEngine()
	d := object.NewTuple()
	d.Put("r", object.SetOf(
		object.TupleOf("i", 6, "f", 2.5, "s", "x"),
	))
	e.Base().Put("d", d)
	e.Invalidate()
	// Int arithmetic stays integral.
	if ans := q(t, e, "?.d.r(.i=I), J = I*2, J = 12"); !ans.Bool() {
		t.Error("int multiply")
	}
	if ans := q(t, e, "?.d.r(.i=I), J = I-7, J = -1"); !ans.Bool() {
		t.Error("int subtract")
	}
	// Mixed promotes to float.
	if ans := q(t, e, "?.d.r(.i=I, .f=F), G = F+I, G = 8.5"); !ans.Bool() {
		t.Error("mixed add")
	}
	if ans := q(t, e, "?.d.r(.i=I, .f=F), G = F*2, G = 5.0"); !ans.Bool() {
		t.Error("float multiply")
	}
	if ans := q(t, e, "?.d.r(.f=F), G = F-0.5, G = 2"); !ans.Bool() {
		t.Error("float subtract")
	}
	// Arithmetic on non-numerics errors.
	query, err := parser.ParseQuery("?.d.r(.s=S), G = S+1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err == nil || !strings.Contains(err.Error(), "arithmetic") {
		t.Errorf("err = %v", err)
	}
}

func TestInsertValidationErrors(t *testing.T) {
	e := newStockEngine(t)
	cases := map[string]string{
		"?.euter.r+(.x>5)":        "simple",        // non-equality inside insert
		"?.euter.r+(.a=1, -.b=2)": "minus",         // minus inside insert
		"?.euter.r+=5":            "atomic update", // atomic plus on a set
		"?.euter.r(+.A=5)":        "unbound",       // tuple plus with unbound attr name
	}
	for src, wantSub := range cases {
		err := execErr(t, e, src)
		if !strings.Contains(strings.ToLower(err.Error()), wantSub) {
			t.Errorf("%s: err = %v (want mention of %q)", src, err, wantSub)
		}
	}
}

func TestWildcardAtomicPlusWritesEveryAttribute(t *testing.T) {
	// `.A+=5` with A unbound is a wildcard write: every attribute of the
	// matched tuples is replaced — the plus analogue of delStk's `.S-=X`
	// wildcard delete.
	e := NewEngine()
	d := object.NewTuple()
	d.Put("r", object.SetOf(object.TupleOf("a", 1, "b", 2)))
	e.Base().Put("d", d)
	e.Invalidate()
	res := exec(t, e, "?.d.r(.A+=9)")
	if res.ValuesSet != 2 {
		t.Fatalf("values set = %d, want 2", res.ValuesSet)
	}
	ans := q(t, e, "?.d.r(.a=9, .b=9)")
	if !ans.Bool() {
		t.Error("both attributes should be 9")
	}
}

func TestInsertAggregateValueCloned(t *testing.T) {
	e := NewEngine()
	d := object.NewTuple()
	inner := object.SetOf(object.TupleOf("v", 1))
	d.Put("r", object.SetOf(object.TupleOf("k", 1, "payload", inner)))
	d.Put("dst", object.NewSet())
	e.Base().Put("d", d)
	e.Invalidate()
	// Copy the aggregate payload into dst via a bound variable.
	exec(t, e, "?.d.r(.k=1, .payload=P), .d.dst+(.copy=P)")
	// Mutating the original must not affect the stored copy.
	inner.Add(object.TupleOf("v", 2))
	e.Invalidate()
	ans := q(t, e, "?.d.dst(.copy=C)")
	if ans.Len() != 1 {
		t.Fatalf("dst rows:\n%s", ans)
	}
	c := ans.Row(0).Get("C").(*object.Set)
	if c.Len() != 1 {
		t.Error("stored aggregate aliased the source (not cloned)")
	}
}

func TestAtomicMinusNonMatchingNoop(t *testing.T) {
	e := newStockEngine(t)
	// -=999 does not match hp's price: no change.
	res := exec(t, e, "?.chwab.r(.date=3/1/85, .hp-=999)")
	if res.ValuesSet != 0 {
		t.Errorf("values set = %d, want 0", res.ValuesSet)
	}
	if ans := q(t, e, "?.chwab.r(.date=3/1/85, .hp=50)"); !ans.Bool() {
		t.Error("value should be untouched")
	}
	// -= with matching ground value nulls it.
	res = exec(t, e, "?.chwab.r(.date=3/1/85, .hp-=50)")
	if res.ValuesSet != 1 {
		t.Errorf("values set = %d, want 1", res.ValuesSet)
	}
}

func TestMergedUniverseCollisionUnion(t *testing.T) {
	// A rule head targets an existing base relation name: queries see the
	// union, the base is untouched.
	e := newStockEngine(t)
	mustRule(t, e, ".euter.r+(.date=D, .stkCode=S, .clsPrice=P) <- .ource.S(.date=D, .clsPrice=P), S = sun, P = 210")
	// That derived fact duplicates an existing base fact: union size
	// stays 9.
	ans := q(t, e, "?.euter.r(.date=D,.stkCode=S,.clsPrice=P)")
	if ans.Len() != 9 {
		t.Errorf("union rows = %d:\n%s", ans.Len(), ans)
	}
	// Now derive a new fact into the same relation.
	mustRule(t, e, ".euter.r+(.date=D, .stkCode=extra, .clsPrice=P) <- .ource.hp(.date=D, .clsPrice=P)")
	ans = q(t, e, "?.euter.r(.stkCode=extra)")
	if !ans.Bool() {
		t.Error("derived facts should appear in the merged relation")
	}
	if relation(t, e, "euter", "r").Len() != 9 {
		t.Error("base must stay untouched")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := newStockEngine(t)
	e.ResetStats()
	if st := e.Stats(); st.ElementsScanned != 0 {
		t.Error("ResetStats failed")
	}
	q(t, e, "?.euter.r(.stkCode=hp)")
	if st := e.Stats(); st.ElementsScanned == 0 {
		t.Error("stats should accumulate")
	}
	overlay, err := e.DerivedOverlay()
	if err != nil || overlay == nil {
		t.Fatalf("overlay: %v %v", overlay, err)
	}
	if overlay.Len() != 0 {
		t.Error("no rules: overlay should be empty")
	}
	mustRule(t, e, ".v.p+(.s=S) <- .euter.r(.stkCode=S)")
	overlay, err = e.DerivedOverlay()
	if err != nil || !overlay.Has("v") {
		t.Errorf("overlay after rule: %v %v", overlay, err)
	}
	if len(e.Programs()) != 0 {
		t.Error("no programs registered yet")
	}
}

func TestVarExprNode(t *testing.T) {
	// The API-level VarExpr node binds whole objects like `=X`.
	e := newStockEngine(t)
	body := ast.Conj(ast.Attr("euter", ast.Conj(ast.Attr("r", &ast.VarExpr{Name: "R"}))))
	ans, err := e.Query(&ast.Query{Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("rows = %d", ans.Len())
	}
	if _, ok := ans.Row(0).Get("R").(*object.Set); !ok {
		t.Error("R should bind the relation set")
	}
}

func TestAnswerSortWithMissingColumns(t *testing.T) {
	a := newAnswer([]string{"X", "Y"})
	a.rows.add([]object.Object{object.Int(2), nil})
	a.rows.add([]object.Object{object.Int(1), object.Int(5)})
	a.Sort()
	if a.Row(0).Get("Y") == nil {
		// rows missing Y sort first
		t.Log("missing-column row sorted first as expected")
	}
	if !a.Row(1).Get("X").Equal(object.Int(2)) && !a.Row(0).Get("X").Equal(object.Int(1)) {
		t.Errorf("sort order: %v", a.Rows())
	}
}

func TestUnknownStatementKinds(t *testing.T) {
	e := newStockEngine(t)
	// Navigating a non-tuple with an attribute expression in update mode.
	err := execErr(t, e, "?.euter.r(.date=3/1/85, .clsPrice(.deep+=1))")
	if !strings.Contains(err.Error(), "applied to") {
		t.Errorf("err = %v", err)
	}
}

func TestGroundNameErrors(t *testing.T) {
	e := NewEngine()
	e.Base().Put("b", object.NewTuple())
	// Head attribute var bound to a non-string: S binds to an int.
	r, err := parser.ParseRule(".v.S+(.x=1) <- .b.s(.k=S)")
	if err != nil {
		t.Fatal(err)
	}
	db := object.NewTuple()
	db.Put("s", object.SetOf(object.TupleOf("k", 42)))
	e.Base().Put("b", db)
	e.Invalidate()
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EffectiveUniverse(); err == nil {
		t.Error("non-string head attribute should fail materialization")
	}
}

func TestQueryAgainstEmptyUniverse(t *testing.T) {
	e := NewEngine()
	if ans := q(t, e, "?.X"); ans.Len() != 0 {
		t.Errorf("empty universe rows:\n%s", ans)
	}
	if ans := q(t, e, "?.nosuch.r(.x=1)"); ans.Bool() {
		t.Error("missing database should be false, not error")
	}
}

func TestDeepNestedNavigationUpdate(t *testing.T) {
	// Updates through three levels of nesting keep hashes coherent.
	e := NewEngine()
	leaf := object.SetOf(object.TupleOf("v", 1))
	mid := object.TupleOf("leafs", leaf, "tag", "m")
	d := object.NewTuple()
	d.Put("r", object.SetOf(object.TupleOf("k", 1, "mid", mid)))
	e.Base().Put("d", d)
	e.Invalidate()
	exec(t, e, "?.d.r(.k=1, .mid.leafs+(.v=2))")
	ans := q(t, e, "?.d.r(.k=1, .mid.leafs(.v=V))")
	if ans.Len() != 2 {
		t.Fatalf("leaf values:\n%s", ans)
	}
	rel := relation(t, e, "d", "r")
	found := 0
	rel.Each(func(elem object.Object) bool {
		if rel.Contains(elem) {
			found++
		}
		return true
	})
	if found != rel.Len() {
		t.Error("nested mutation broke set membership")
	}
}

func TestAnswerProject(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.r(.stkCode=S, .clsPrice=P)")
	if ans.Len() != 9 {
		t.Fatalf("rows = %d", ans.Len())
	}
	stocks := ans.Project("S")
	if stocks.Len() != 3 {
		t.Errorf("projected stocks = %d, want 3 (dedup)", stocks.Len())
	}
	if len(stocks.Vars) != 1 || stocks.Vars[0] != "S" {
		t.Errorf("projected vars = %v", stocks.Vars)
	}
	// Projecting onto an absent variable yields a single empty row.
	empty := ans.Project("Nope")
	if empty.Len() != 1 {
		t.Errorf("absent-var projection rows = %d", empty.Len())
	}
}

func TestErrorMessageRendering(t *testing.T) {
	// Error types render with enough context to act on.
	unsafe := &UnsafeError{Var: "P", Expr: ast.Gt(ast.V("P"))}
	if !strings.Contains(unsafe.Error(), "P") || !strings.Contains(unsafe.Error(), "unsafe") {
		t.Errorf("UnsafeError = %q", unsafe.Error())
	}
	ns := &NotStratifiedError{Rules: []string{"r1", "r2"}}
	if !strings.Contains(ns.Error(), "stratified") || !strings.Contains(ns.Error(), "2 rule") {
		t.Errorf("NotStratifiedError = %q", ns.Error())
	}
	ub := &unboundError{Var: "X"}
	if !strings.Contains(ub.Error(), "X") {
		t.Errorf("unboundError = %q", ub.Error())
	}
	iu := &InsertUnboundError{Var: "V", Expr: ast.Eq(ast.V("V"))}
	if !strings.Contains(iu.Error(), "V") || !strings.Contains(iu.Error(), "undefined") {
		t.Errorf("InsertUnboundError = %q", iu.Error())
	}
}

func TestValidatorHookDirect(t *testing.T) {
	e := newStockEngine(t)
	calls := 0
	e.SetValidator(func(u *object.Tuple) error {
		calls++
		return nil
	})
	exec(t, e, "?.euter.r-(.stkCode=hp)")
	if calls != 1 {
		t.Errorf("validator calls = %d, want 1", calls)
	}
	// Pure query requests skip validation.
	exec(t, e, "?.euter.r(.stkCode=ibm)")
	if calls != 1 {
		t.Errorf("validator ran for a read (%d calls)", calls)
	}
	// Clearing the validator stops enforcement.
	e.SetValidator(nil)
	exec(t, e, "?.euter.r-(.stkCode=ibm)")
	if calls != 1 {
		t.Errorf("cleared validator still ran (%d)", calls)
	}
}

func TestBuildPlusNestedShapes(t *testing.T) {
	e := NewEngine()
	e.Base().Put("d", object.NewTuple())
	e.Invalidate()
	// Insert a tuple whose attribute holds a nested set built by a
	// nested plus: `.d+.r(); .d.r+(.k=1, .tags(+(.t=a)))` — nested set
	// expressions inside inserts build singleton sets.
	exec(t, e, "?.d+.r()")
	exec(t, e, "?.d.r+(.k=1, .tags(.t=a))")
	ans := q(t, e, "?.d.r(.k=1, .tags(.t=T))")
	if !ans.Contains(row("T", "a")) {
		t.Errorf("nested set insert:\n%s", ans)
	}
	// `+()` inserts an empty tuple element.
	exec(t, e, "?.d.r+()")
	if got := relation(t, e, "d", "r").Len(); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}

func TestEmptyForUnknownShape(t *testing.T) {
	if emptyFor(ast.Eq(1)) != nil {
		t.Error("atomic expressions have no inferable empty object")
	}
	if emptyFor(ast.Epsilon{}) == nil {
		t.Error("epsilon concretizes as an empty tuple")
	}
}

func TestSortBooleanAnswerStable(t *testing.T) {
	a := newAnswer(nil)
	a.rows.add(nil)
	a.Sort() // no vars: must not panic
	if !a.Bool() {
		t.Error("row present")
	}
}
