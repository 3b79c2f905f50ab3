package core

import (
	"errors"
	"strings"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
)

// unifiedViewRules are the paper's §6 rules defining dbI.p over all three
// schemas.
var unifiedViewRules = []string{
	".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
	".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
}

// customizedViewRules re-render the unified view in each user's native
// schema (integration transparency, Figure 1). dbO's rule is a
// higher-order view: one relation per stock, data dependent.
var customizedViewRules = []string{
	".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
}

func addRules(t testing.TB, e *Engine, rules []string) {
	t.Helper()
	for _, r := range rules {
		mustRule(t, e, r)
	}
}

func TestUnifiedViewOverThreeSchemas(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	// All three databases hold the same nine facts, so p has 9 tuples.
	ans := q(t, e, "?.dbI.p(.date=D, .stk=S, .price=P)")
	if ans.Len() != 9 {
		t.Fatalf("unified view rows = %d, want 9:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("D", object.NewDate(85, 3, 3), "S", "hp", "P", 62)) {
		t.Errorf("missing hp 3/3/85:\n%s", ans)
	}
	// Database transparency: the same query once, against the view.
	above := q(t, e, "?.dbI.p(.stk=S, .price>200)")
	if above.Len() != 1 || !above.Contains(row("S", "sun")) {
		t.Errorf("above-200 via unified view:\n%s", above)
	}
}

func TestUnifiedViewUnionsDiscrepantFacts(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	// Introduce a price discrepancy in chwab only: "if there is any value
	// discrepancy … both prices are in the user's view" (§6).
	exec(t, e, "?.chwab.r(.date=3/1/85,.hp=C), .chwab.r-(.date=3/1/85,.hp=C), .chwab.r+(.date=3/1/85,.hp=51)")
	ans := q(t, e, "?.dbI.p(.stk=hp, .date=3/1/85, .price=P)")
	if ans.Len() != 2 {
		t.Fatalf("rows = %d, want both 50 and 51:\n%s", ans.Len(), ans)
	}
	if !ans.Contains(row("P", 50)) || !ans.Contains(row("P", 51)) {
		t.Errorf("want both prices:\n%s", ans)
	}
}

func TestPnewReconciliation(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	// pnew resolves discrepancies by keeping the highest quote (the
	// schema administrator's choice; §6 leaves the policy open). It is
	// definable inside IDL with stratified negation.
	mustRule(t, e, ".dbI.pnew+(.date=D,.stk=S,.price=P) <- .dbI.p(.date=D,.stk=S,.price=P), .dbI.p~(.date=D,.stk=S,.price>P)")
	exec(t, e, "?.chwab.r(.date=3/1/85,.hp=C), .chwab.r-(.date=3/1/85,.hp=C), .chwab.r+(.date=3/1/85,.hp=51)")
	ans := q(t, e, "?.dbI.pnew(.stk=hp, .date=3/1/85, .price=P)")
	if ans.Len() != 1 || !ans.Contains(row("P", 51)) {
		t.Errorf("pnew should keep 51 only:\n%s", ans)
	}
	// Undisputed facts pass through.
	ans = q(t, e, "?.dbI.pnew(.stk=ibm, .date=3/2/85, .price=P)")
	if ans.Len() != 1 || !ans.Contains(row("P", 155)) {
		t.Errorf("pnew ibm:\n%s", ans)
	}
}

func TestCustomizedViewsRoundTrip(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	addRules(t, e, customizedViewRules)

	// dbE.r must equal euter.r exactly (Figure 1 round trip).
	ansE := q(t, e, "?.dbE.r(.date=D,.stkCode=S,.clsPrice=P)")
	if ansE.Len() != 9 {
		t.Errorf("dbE.r rows = %d, want 9", ansE.Len())
	}
	for _, d := range fixDates {
		for _, s := range fixStocks {
			if !ansE.Contains(row("D", d, "S", s, "P", priceOf(s, d))) {
				t.Errorf("dbE missing (%s,%s)", d, s)
			}
		}
	}

	// dbC.r: one tuple per date with one attribute per stock.
	ansC := q(t, e, "?.dbC.r(.date=3/2/85, .hp=HP, .ibm=IBM, .sun=SUN)")
	if ansC.Len() != 1 || !ansC.Contains(row("HP", 55, "IBM", 155, "SUN", 210)) {
		t.Errorf("dbC row:\n%s", ansC)
	}

	// dbO: data-dependent relation set — exactly one relation per stock.
	ansO := q(t, e, "?.dbO.Y")
	if ansO.Len() != 3 {
		t.Fatalf("dbO relations = %d, want 3:\n%s", ansO.Len(), ansO)
	}
	for _, s := range fixStocks {
		if !ansO.Contains(row("Y", s)) {
			t.Errorf("dbO missing relation %s", s)
		}
	}
	ans := q(t, e, "?.dbO.hp(.date=3/3/85, .clsPrice=P)")
	if ans.Len() != 1 || !ans.Contains(row("P", 62)) {
		t.Errorf("dbO.hp:\n%s", ans)
	}
}

func priceOf(s string, d object.Date) int {
	for i, fd := range fixDates {
		if fd == d {
			return fixPrices[s][i]
		}
	}
	return -1
}

func TestHigherOrderViewGrowsWithData(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	addRules(t, e, customizedViewRules)
	if ans := q(t, e, "?.dbO.Y"); ans.Len() != 3 {
		t.Fatalf("dbO starts with %d relations", ans.Len())
	}
	// Adding a stock to ANY base database grows the dbO schema: the
	// number of relations is data dependent (§6).
	exec(t, e, "?.euter.r+(.date=3/1/85,.stkCode=dec,.clsPrice=80)")
	ans := q(t, e, "?.dbO.Y")
	if ans.Len() != 4 || !ans.Contains(row("Y", "dec")) {
		t.Errorf("dbO should now have dec:\n%s", ans)
	}
	ans = q(t, e, "?.dbO.dec(.date=3/1/85,.clsPrice=P)")
	if !ans.Contains(row("P", 80)) {
		t.Errorf("dbO.dec content:\n%s", ans)
	}
	// And dbC tuples gained an attribute.
	ans = q(t, e, "?.dbC.r(.date=3/1/85, .dec=P)")
	if !ans.Contains(row("P", 80)) {
		t.Errorf("dbC dec attribute:\n%s", ans)
	}
}

func TestNameMappings(t *testing.T) {
	// §6's last example: stock codes differ across databases; binary
	// mapping relations mapCE/mapOE translate chwab/ource names to euter
	// codes.
	e := NewEngine()
	u := e.Base()
	// euter uses full codes; chwab/ource use short names.
	euter := object.NewTuple()
	euter.Put("r", object.SetOf(
		object.TupleOf("date", object.NewDate(85, 3, 1), "stkCode", "hewlettPackard", "clsPrice", 50),
	))
	u.Put("euter", euter)
	chwab := object.NewTuple()
	chwab.Put("r", object.SetOf(
		object.TupleOf("date", object.NewDate(85, 3, 1), "hp", 50),
	))
	u.Put("chwab", chwab)
	ource := object.NewTuple()
	ource.Put("hpq", object.SetOf(
		object.TupleOf("date", object.NewDate(85, 3, 1), "clsPrice", 50),
	))
	u.Put("ource", ource)
	// Mapping relations live in a (base) mapping database.
	maps := object.NewTuple()
	maps.Put("mapCE", object.SetOf(object.TupleOf("from", "hp", "to", "hewlettPackard")))
	maps.Put("mapOE", object.SetOf(object.TupleOf("from", "hpq", "to", "hewlettPackard")))
	u.Put("maps", maps)
	e.Invalidate()

	mustRule(t, e, ".dbI.p+(.date=D,.stk=S,.price=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)")
	mustRule(t, e, ".dbI.p+(.date=D,.stk=S,.price=P) <- .chwab.r(.date=D,.SC=P), .maps.mapCE(.from=SC,.to=S)")
	mustRule(t, e, ".dbI.p+(.date=D,.stk=S,.price=P) <- .ource.SO(.date=D,.clsPrice=P), .maps.mapOE(.from=SO,.to=S)")

	ans := q(t, e, "?.dbI.p(.stk=S,.price=P)")
	if ans.Len() != 1 || !ans.Contains(row("S", "hewlettPackard", "P", 50)) {
		t.Errorf("name-mapped unified view:\n%s", ans)
	}
}

func TestViewOverView(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	mustRule(t, e, ".dbX.expensive+(.stk=S) <- .dbI.p(.stk=S, .price>200)")
	ans := q(t, e, "?.dbX.expensive(.stk=S)")
	if ans.Len() != 1 || !ans.Contains(row("S", "sun")) {
		t.Errorf("view over view:\n%s", ans)
	}
}

func TestPositiveRecursionFixpoint(t *testing.T) {
	// Transitive closure — positive recursion must reach a fixpoint.
	e := NewEngine()
	g := object.NewTuple()
	g.Put("edge", object.SetOf(
		object.TupleOf("src", 1, "dst", 2),
		object.TupleOf("src", 2, "dst", 3),
		object.TupleOf("src", 3, "dst", 4),
	))
	e.Base().Put("g", g)
	e.Invalidate()
	mustRule(t, e, ".v.path+(.src=X,.dst=Y) <- .g.edge(.src=X,.dst=Y)")
	mustRule(t, e, ".v.path+(.src=X,.dst=Z) <- .v.path(.src=X,.dst=Y), .g.edge(.src=Y,.dst=Z)")
	ans := q(t, e, "?.v.path(.src=1,.dst=D)")
	if ans.Len() != 3 {
		t.Fatalf("paths from 1 = %d, want 3:\n%s", ans.Len(), ans)
	}
	for _, d := range []int{2, 3, 4} {
		if !ans.Contains(row("D", d)) {
			t.Errorf("missing path 1->%d", d)
		}
	}
}

func TestStratifiedNegationAcrossViews(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	// Stocks quoted in euter but not above 200 anywhere (negation over a
	// derived view → must be in a higher stratum).
	mustRule(t, e, ".dbX.cheap+(.stk=S) <- .euter.r(.stkCode=S), .dbI.p~(.stk=S, .price>200)")
	ans := q(t, e, "?.dbX.cheap(.stk=S)")
	if ans.Len() != 2 || !ans.Contains(row("S", "hp")) || !ans.Contains(row("S", "ibm")) {
		t.Errorf("cheap stocks:\n%s", ans)
	}
}

func TestNotStratifiedRejected(t *testing.T) {
	e := NewEngine()
	e.Base().Put("b", object.NewTuple())
	r1, err := parser.ParseRule(".v.p+(.x=X) <- .b.s(.x=X), .v.q~(.x=X)")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parser.ParseRule(".v.q+(.x=X) <- .v.p(.x=X)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(r1); err != nil {
		t.Fatal(err)
	}
	err = e.AddRule(r2)
	var ns *NotStratifiedError
	if !errors.As(err, &ns) {
		t.Fatalf("want NotStratifiedError, got %v", err)
	}
	// The failed rule must not have been kept.
	if len(e.Rules()) != 1 {
		t.Errorf("rules = %d, want 1", len(e.Rules()))
	}
}

func TestRuleValidation(t *testing.T) {
	e := NewEngine()
	bad := []string{
		".v.p+(.x=X) <- .b.s(.y=Y)",              // head var not in body
		".v.p+(.x>X) <- .b.s(.x=X)",              // non-simple head
		".v.p-(.x=X) <- .b.s(.x=X)",              // minus head
		".V.p+(.x=X) <- .b.s(.x=X, .V)",          // variable database name in head
		".v.p+(.x=X) <- .b.s-(.x=X)",             // update in body
		".v.p~(.x=X) <- .b.s(.x=X)",              // negated head
		".v+(.a=X) <- .b.s(.x=X)",                // a database-level set
		".v.p.q+(.x=X) <- .b.s(.x=X)",            // a set below a relation
		".v(.p+(.x=X), .q+(.x=X)) <- .b.s(.x=X)", // two relations in one head
	}
	for _, src := range bad {
		r, err := parser.ParseRule(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if err := e.AddRule(r); err == nil {
			t.Errorf("AddRule(%q) should fail", src)
		}
	}
}

func TestViewsRefreshAfterBaseUpdate(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	if ans := q(t, e, "?.dbI.p(.stk=hp)"); !ans.Bool() {
		t.Fatal("view should see hp")
	}
	exec(t, e, "?.euter.r-(.stkCode=hp), .chwab.r(-.hp), .ource-.hp")
	ans := q(t, e, "?.dbI.p(.stk=hp)")
	if ans.Bool() {
		t.Error("hp removed from all bases; view must not show it")
	}
}

func TestDirectUpdateOfViewRejectedWithoutProgram(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	err := execErr(t, e, "?.dbI.p+(.date=3/9/85,.stk=hp,.price=99)")
	if !strings.Contains(err.Error(), "not updatable") {
		t.Errorf("error = %v", err)
	}
}

func TestMaterializationStatsExposed(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	if _, err := e.EffectiveUniverse(); err != nil {
		t.Fatal(err)
	}
	st := e.LastRecompute()
	if st.RuleRuns == 0 || st.FactsDerived != 9 {
		t.Errorf("recompute stats = %+v", st)
	}
}

func TestMaxIterationsGuard(t *testing.T) {
	// A rule set that grows forever must hit the iteration guard, not
	// hang: counting upward via arithmetic in the body. The first arm
	// trips it on the first materialization, the second on the delta
	// refresh after a captured write seeds the count.
	for _, seeded := range []bool{true, false} {
		opts := DefaultOptions()
		opts.MaxIterations = 5
		e := NewEngineWithOptions(opts)
		g := object.NewTuple()
		seed := object.NewSet()
		if seeded {
			seed.Add(object.TupleOf("n", 1))
		}
		g.Put("seed", seed)
		e.Base().Put("g", g)
		e.Invalidate()
		mustRule(t, e, ".v.nums+(.n=N) <- .g.seed(.n=N)")
		mustRule(t, e, ".v.nums+(.n=M) <- .v.nums(.n=N), M = N+1")
		if !seeded {
			if _, err := e.EffectiveUniverse(); err != nil {
				t.Fatal(err)
			}
			exec(t, e, "?.g.seed+(.n=1)")
			if e.views.pending.full {
				t.Fatal("the write was not captured: its refresh would start from empty")
			}
		}
		_, err := e.EffectiveUniverse()
		if err == nil || !strings.Contains(err.Error(), "iterations") {
			t.Errorf("seeded=%v: want iteration-guard error, got %v", seeded, err)
		}
	}
}

func TestDerivedOverlayDoesNotPolluteBase(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	if _, err := e.EffectiveUniverse(); err != nil {
		t.Fatal(err)
	}
	if e.Base().Has("dbI") {
		t.Error("derived database leaked into the base universe")
	}
}

func TestRuleHeadIntoBaseDatabaseMerges(t *testing.T) {
	// A rule may target an existing base database; queries see the union.
	e := newStockEngine(t)
	mustRule(t, e, ".euter.r2+(.stkCode=S) <- .euter.r(.stkCode=S, .clsPrice>200)")
	ans := q(t, e, "?.euter.Y")
	if ans.Len() != 2 || !ans.Contains(row("Y", "r2")) {
		t.Errorf("euter relations:\n%s", ans)
	}
	if e.Base().Has("dbI") {
		t.Error("unexpected")
	}
	// Base euter.r unchanged on disk.
	if relation(t, e, "euter", "r").Len() != 9 {
		t.Error("base relation mutated by derivation")
	}
}
