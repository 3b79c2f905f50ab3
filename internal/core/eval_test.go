package core

import (
	"errors"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
)

// --- Paper §4.2: first-order queries on euter ---

func TestPaperE1HpAbove60(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.r(.stkCode=hp, .clsPrice>60)")
	if len(ans.Vars) != 0 {
		t.Fatalf("expected boolean query, vars = %v", ans.Vars)
	}
	if !ans.Bool() {
		t.Error("hp closed at 62 > 60; query should be true")
	}
	ans = q(t, e, "?.euter.r(.stkCode=hp, .clsPrice>100)")
	if ans.Bool() {
		t.Error("hp never closed above 100")
	}
}

func TestPaperE1SelfJoin(t *testing.T) {
	e := newStockEngine(t)
	// Dates when hp closed above 60 and ibm above 150 (same day).
	ans := q(t, e, "?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)")
	if ans.Len() != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("D", object.NewDate(85, 3, 3))) {
		t.Errorf("missing 3/3/85:\n%s", ans)
	}
}

func TestPaperE1AllTimeHigh(t *testing.T) {
	e := newStockEngine(t)
	// Dates/prices when hp closed at its all-time high (negation +
	// inequality join). Note the negation precedes its binder textually;
	// the scheduler must defer it.
	ans := q(t, e, "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P)")
	if ans.Len() != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("D", object.NewDate(85, 3, 3), "P", 62)) {
		t.Errorf("want (3/3/85, 62):\n%s", ans)
	}
}

func TestPaperE1AnyStockAbove200OnEuter(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.r(.stkCode=S, .clsPrice>200)")
	if ans.Len() != 1 || !ans.Contains(row("S", "sun")) {
		t.Errorf("want S=sun only:\n%s", ans)
	}
}

// --- Paper §4.3: higher-order queries ---

func TestHigherOrderDatabaseNames(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.X")
	want := []string{"chwab", "euter", "ource"}
	if ans.Len() != 3 {
		t.Fatalf("databases = %d, want 3:\n%s", ans.Len(), ans)
	}
	for _, db := range want {
		if !ans.Contains(row("X", db)) {
			t.Errorf("missing database %s", db)
		}
	}
}

func TestHigherOrderRelationNamesInOurce(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.ource.Y")
	if ans.Len() != 3 {
		t.Fatalf("rows = %d:\n%s", ans.Len(), ans)
	}
	for _, s := range fixStocks {
		if !ans.Contains(row("Y", s)) {
			t.Errorf("missing relation %s", s)
		}
	}
}

func TestHigherOrderConstraintForm(t *testing.T) {
	e := newStockEngine(t)
	// Footnote 7: ?.X.Y, X = ource
	ans := q(t, e, "?.X.Y, X = ource")
	if ans.Len() != 3 {
		t.Fatalf("rows = %d:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("X", "ource", "Y", "hp")) {
		t.Errorf("missing (ource, hp):\n%s", ans)
	}
}

func TestHigherOrderAllDBRelPairs(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.X.Y")
	// euter.r, chwab.r, ource.{hp,ibm,sun} = 5 pairs.
	if ans.Len() != 5 {
		t.Errorf("rows = %d, want 5:\n%s", ans.Len(), ans)
	}
}

func TestHigherOrderDatabasesWithRelationHp(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.X.hp")
	if ans.Len() != 1 || !ans.Contains(row("X", "ource")) {
		t.Errorf("want X=ource only:\n%s", ans)
	}
}

func TestHigherOrderRelationsWithAttributeStkCode(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.X.Y(.stkCode)")
	if ans.Len() != 1 || !ans.Contains(row("X", "euter", "Y", "r")) {
		t.Errorf("want (euter, r) only:\n%s", ans)
	}
}

func TestCrossDatabaseJoinChwabOurce(t *testing.T) {
	e := newStockEngine(t)
	// Stocks in ource and chwab with the same closing price: S is an
	// attribute name in chwab and a relation name in ource.
	ans := q(t, e, "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)")
	// Every (stock, day) pair matches by construction, but S also ranges
	// over chwab's "date" attribute: .date=D, .date=P can only unify when
	// D = P, and a date never equals a price — so exactly 9 rows.
	if ans.Len() != 9 {
		t.Fatalf("rows = %d, want 9:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("S", "hp", "D", object.NewDate(85, 3, 1), "P", 50)) {
		t.Errorf("missing (hp, 3/1/85, 50):\n%s", ans)
	}
}

func TestRelationsInAllThreeDatabases(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.Y, .chwab.Y, .ource.Y")
	// euter and chwab have only r; ource has hp/ibm/sun: no common name.
	if ans.Len() != 0 {
		t.Errorf("rows = %d, want 0:\n%s", ans.Len(), ans)
	}
}

func TestAnyStockAbove200AllSchemas(t *testing.T) {
	e := newStockEngine(t)
	// The same intention posed against each schema (§2 query 1, §4.3).
	cases := map[string]string{
		"euter": "?.euter.r(.stkCode=S, .clsPrice>200)",
		"chwab": "?.chwab.r(.S>200)",
		"ource": "?.ource.S(.clsPrice > 200)",
	}
	for db, src := range cases {
		ans := q(t, e, src)
		if !ans.Contains(row("S", "sun")) {
			t.Errorf("%s: missing S=sun:\n%s", db, ans)
		}
		// chwab's S>200 also never matches the date attribute (dates are
		// not comparable with ints), so sun is the only answer everywhere.
		if ans.Len() != 1 {
			t.Errorf("%s: rows = %d, want 1:\n%s", db, ans.Len(), ans)
		}
	}
}

func TestHighestClosePerDayAllSchemas(t *testing.T) {
	e := newStockEngine(t)
	// §2 query 2: for each day, the stock with the highest closing price.
	// Highest per day: 3/1 sun 201, 3/2 sun 210, 3/3 ibm 160.
	type want struct {
		s string
		p int
	}
	wants := map[object.Date]want{
		object.NewDate(85, 3, 1): {"sun", 201},
		object.NewDate(85, 3, 2): {"sun", 210},
		object.NewDate(85, 3, 3): {"ibm", 160},
	}
	check := func(name string, ans *Answer) {
		t.Helper()
		if ans.Len() != 3 {
			t.Errorf("%s: rows = %d, want 3:\n%s", name, ans.Len(), ans)
			return
		}
		for d, w := range wants {
			if !ans.Contains(row("D", d, "S", w.s, "P", w.p)) {
				t.Errorf("%s: missing (%s, %s, %d):\n%s", name, d, w.s, w.p, ans)
			}
		}
	}
	check("euter", q(t, e,
		"?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"))
	check("chwab", q(t, e,
		"?.chwab.r(.date=D,.S=P), .chwab.r~(.date=D,.S2>P), S != date"))
	check("ource", q(t, e,
		"?.ource.S(.date=D,.clsPrice=P), ~.ource.S2(.date=D, .clsPrice>P)"))
}

// --- Aggregate-object variables (§4.1 extension) ---

func TestAggregateVariableBindsRelation(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.r=R")
	if ans.Len() != 1 {
		t.Fatalf("rows = %d:\n%s", ans.Len(), ans)
	}
	set, ok := ans.Row(0).Get("R").(*object.Set)
	if !ok {
		t.Fatalf("R bound to %T, want *Set", ans.Row(0).Get("R"))
	}
	if set.Len() != 9 {
		t.Errorf("R has %d elements, want 9", set.Len())
	}
}

func TestAggregateVariableJoinsStructurally(t *testing.T) {
	e := NewEngine()
	u := e.Base()
	db := object.NewTuple()
	db.Put("a", object.SetOf(1, 2))
	db.Put("b", object.SetOf(2, 1))
	db.Put("c", object.SetOf(3))
	u.Put("d", db)
	e.Invalidate()
	// Which relations are equal as sets? a=b (value-based equality).
	ans := q(t, e, "?.d.X=R, .d.Y=R, X != Y")
	if ans.Len() != 2 { // (a,b) and (b,a)
		t.Errorf("rows = %d, want 2:\n%s", ans.Len(), ans)
	}
}

// --- Semantics details ---

func TestNullSatisfiesNothing(t *testing.T) {
	e := NewEngine()
	db := object.NewTuple()
	db.Put("r", object.SetOf(
		object.TupleOf("a", object.Null{}, "k", 1),
		object.TupleOf("a", 5, "k", 2),
	))
	e.Base().Put("d", db)
	e.Invalidate()
	// Null never satisfies atomic expressions — not even =X or =null.
	if ans := q(t, e, "?.d.r(.a=5, .k=K)"); !ans.Contains(row("K", 2)) || ans.Len() != 1 {
		t.Errorf("=5 rows:\n%s", ans)
	}
	if ans := q(t, e, "?.d.r(.a=X, .k=K)"); ans.Len() != 1 || !ans.Contains(row("X", 5, "K", 2)) {
		t.Errorf("=X should skip null:\n%s", ans)
	}
	if ans := q(t, e, "?.d.r(.a=null)"); ans.Bool() {
		t.Errorf("null should not satisfy =null")
	}
	if ans := q(t, e, "?.d.r(.a<10, .k=K)"); ans.Len() != 1 {
		t.Errorf("comparison should skip null:\n%s", ans)
	}
}

func TestHeterogeneousArityTuples(t *testing.T) {
	e := NewEngine()
	db := object.NewTuple()
	db.Put("r", object.SetOf(
		object.TupleOf("x", 1),
		object.TupleOf("x", 2, "y", 3),
	))
	e.Base().Put("d", db)
	e.Invalidate()
	ans := q(t, e, "?.d.r(.y=Y)")
	if ans.Len() != 1 || !ans.Contains(row("Y", 3)) {
		t.Errorf("only the wider tuple has y:\n%s", ans)
	}
	ans = q(t, e, "?.d.r(.x=X)")
	if ans.Len() != 2 {
		t.Errorf("both tuples have x:\n%s", ans)
	}
}

func TestUnsafeQueryError(t *testing.T) {
	e := newStockEngine(t)
	query, err := parser.ParseQuery("?.euter.r(.clsPrice>P)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Query(query)
	var unsafe *UnsafeError
	if !errors.As(err, &unsafe) {
		t.Fatalf("want UnsafeError, got %v", err)
	}
	if unsafe.Var != "P" {
		t.Errorf("unsafe var = %s", unsafe.Var)
	}
}

func TestInequalityJoin(t *testing.T) {
	e := newStockEngine(t)
	// Pairs of stocks where one closed strictly lower than another on
	// 3/1/85: hp(50) < ibm(140) < sun(201).
	ans := q(t, e, "?.euter.r(.date=3/1/85,.stkCode=A,.clsPrice=PA), .euter.r(.date=3/1/85,.stkCode=B,.clsPrice=PB), PA < PB")
	if ans.Len() != 3 {
		t.Errorf("rows = %d, want 3:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("A", "hp", "B", "sun", "PA", 50, "PB", 201)) {
		t.Errorf("missing hp<sun:\n%s", ans)
	}
}

func TestNegatedConjunctAtTopLevel(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?~.euter.r(.clsPrice>300)")
	if !ans.Bool() {
		t.Error("no stock closed above 300; negation should hold")
	}
	ans = q(t, e, "?~.euter.r(.clsPrice>200)")
	if ans.Bool() {
		t.Error("sun closed above 200; negation should fail")
	}
}

func TestNestedSetOfSets(t *testing.T) {
	e := NewEngine()
	db := object.NewTuple()
	inner1 := object.SetOf(object.TupleOf("v", 1))
	inner2 := object.SetOf(object.TupleOf("v", 2))
	db.Put("groups", object.SetOf(
		object.TupleOf("g", 1, "members", inner1),
		object.TupleOf("g", 2, "members", inner2),
	))
	e.Base().Put("d", db)
	e.Invalidate()
	ans := q(t, e, "?.d.groups(.g=G, .members(.v=2))")
	if ans.Len() != 1 || !ans.Contains(row("G", 2)) {
		t.Errorf("nested set query:\n%s", ans)
	}
}

func TestArithmeticInQuery(t *testing.T) {
	e := newStockEngine(t)
	// Stocks whose 3/2 price is exactly 3/1 price + 5 (hp: 50 -> 55).
	ans := q(t, e, "?.euter.r(.date=3/1/85,.stkCode=S,.clsPrice=P1), .euter.r(.date=3/2/85,.stkCode=S,.clsPrice=P2), P2 = P1+5")
	if ans.Len() != 1 || !ans.Contains(row("S", "hp", "P1", 50, "P2", 55)) {
		t.Errorf("arithmetic join:\n%s", ans)
	}
}

func TestVariableFreeBooleanAnswerString(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.euter.r(.stkCode=hp)")
	if got := ans.String(); got != "true" {
		t.Errorf("String = %q", got)
	}
	ans = q(t, e, "?.euter.r(.stkCode=nosuch)")
	if got := ans.String(); got != "false" {
		t.Errorf("String = %q", got)
	}
}

func TestAnswerTableString(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.ource.Y")
	want := "Y\nhp\nibm\nsun"
	if got := ans.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestQueryRejectsUpdateRequest(t *testing.T) {
	e := newStockEngine(t)
	query, err := parser.ParseQuery("?.euter.r+(.stkCode=x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err == nil {
		t.Error("Query should reject update requests")
	}
}

func TestAnswerColumnAndSort(t *testing.T) {
	e := newStockEngine(t)
	ans := q(t, e, "?.ource.Y")
	ans.Sort()
	col := ans.Column("Y")
	if len(col) != 3 || !col[0].Equal(object.Str("hp")) {
		t.Errorf("column = %v", col)
	}
}

func TestIndexAndScanAgree(t *testing.T) {
	for _, useIndex := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UseIndex = useIndex
		e := NewEngineWithOptions(opts)
		buildStockBase(t, e)
		// Grow euter.r beyond the index threshold.
		rel := relation(t, e, "euter", "r")
		for i := 0; i < 100; i++ {
			rel.Add(object.TupleOf("date", object.NewDate(86, 1, 1+i%28), "stkCode", "bulk", "clsPrice", i))
		}
		e.Invalidate()
		ans := q(t, e, "?.euter.r(.stkCode=hp, .clsPrice=P, .date=D)")
		if ans.Len() != 3 {
			t.Errorf("useIndex=%v: rows = %d, want 3", useIndex, ans.Len())
		}
		stats := e.Stats()
		if useIndex && stats.IndexProbes == 0 {
			t.Error("expected index probes with UseIndex=true")
		}
		if !useIndex && stats.IndexProbes != 0 {
			t.Error("unexpected index probes with UseIndex=false")
		}
	}
}
