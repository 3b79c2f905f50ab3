package stocks

import (
	"reflect"
	"testing"

	"idl/internal/core"
	"idl/internal/datalog"
	"idl/internal/object"
	"idl/internal/parser"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Stocks: 5, Days: 7, Seed: 99, Discrepancies: 3})
	b := Generate(Config{Stocks: 5, Days: 7, Seed: 99, Discrepancies: 3})
	if !reflect.DeepEqual(a.Price, b.Price) || !reflect.DeepEqual(a.ChwabPrice, b.ChwabPrice) {
		t.Error("same config must generate identical datasets")
	}
	c := Generate(Config{Stocks: 5, Days: 7, Seed: 100})
	if reflect.DeepEqual(a.Price, c.Price) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateShape(t *testing.T) {
	ds := Generate(Config{Stocks: 4, Days: 40, Seed: 1})
	if len(ds.Stocks) != 4 || len(ds.Dates) != 40 {
		t.Fatalf("shape = %d stocks, %d dates", len(ds.Stocks), len(ds.Dates))
	}
	for _, ps := range ds.Price {
		for _, p := range ps {
			if p < 1 {
				t.Fatalf("price %d < 1", p)
			}
		}
	}
	// Dates strictly increasing.
	for i := 1; i < len(ds.Dates); i++ {
		if ds.Dates[i].Compare(ds.Dates[i-1]) <= 0 {
			t.Fatalf("dates not increasing at %d: %v then %v", i, ds.Dates[i-1], ds.Dates[i])
		}
	}
	// Degenerate configs clamp.
	tiny := Generate(Config{})
	if len(tiny.Stocks) != 1 || len(tiny.Dates) != 1 {
		t.Errorf("zero config should clamp to 1×1")
	}
}

func TestPopulateSchemas(t *testing.T) {
	u, ds := Universe(Config{Stocks: 3, Days: 4, Seed: 7})
	e := engineOn(u)
	// euter has 12 rows.
	if ans := q(t, e, "?.euter.r(.date=D,.stkCode=S,.clsPrice=P)"); ans.Len() != 12 {
		t.Errorf("euter rows = %d", ans.Len())
	}
	// chwab has one row per date with one attribute per stock (+date).
	if ans := q(t, e, "?.chwab.r(.date=D)"); ans.Len() != 4 {
		t.Errorf("chwab rows = %d", ans.Len())
	}
	// ource has one relation per stock.
	if ans := q(t, e, "?.ource.Y"); ans.Len() != 3 {
		t.Errorf("ource relations = %d", ans.Len())
	}
	_ = ds
}

func TestDiscrepancyInjection(t *testing.T) {
	ds := Generate(Config{Stocks: 5, Days: 5, Seed: 3, Discrepancies: 4})
	diff := 0
	for s := range ds.Price {
		for d := range ds.Price[s] {
			if ds.Price[s][d] != ds.ChwabPrice[s][d] {
				diff++
				if ds.ChwabPrice[s][d] <= ds.Price[s][d] {
					t.Error("discrepancies should raise the chwab price")
				}
			}
		}
	}
	if diff == 0 || diff > 4 {
		t.Errorf("discrepancies applied = %d, want 1..4", diff)
	}
}

func TestNameConflictMappings(t *testing.T) {
	u, ds := Universe(Config{Stocks: 2, Days: 2, Seed: 5, NameConflict: true})
	if ds.ChwabName[0] == ds.Stocks[0] {
		t.Fatal("chwab names should differ under NameConflict")
	}
	e := engineOn(u)
	for _, src := range RulesUnifiedMapped {
		mustRule(t, e, src)
	}
	ans := q(t, e, "?.dbI.p(.date=D,.stk=S,.price=P)")
	if ans.Len() != 4 { // 2 stocks × 2 days, all three schemas agree
		t.Errorf("mapped unified view rows = %d, want 4:\n%s", ans.Len(), ans)
	}
}

// --- Differential tests: IDL vs relalg vs Datalog ---

func TestAnyAboveAgreesAcrossEngines(t *testing.T) {
	u, ds := Universe(Config{Stocks: 12, Days: 20, Seed: 11})
	threshold := ds.MaxPrice() * 3 / 4
	e := engineOn(u)

	// IDL per schema.
	idlResults := map[string][]string{}
	for db, src := range QueryAnyAbove(threshold) {
		ans := q(t, e, src)
		var names []string
		for _, v := range ans.Column("S") {
			names = append(names, string(v.(object.Str)))
		}
		sortStrings(names)
		idlResults[db] = names
	}
	// All three schemas hold the same facts, so all three IDL answers
	// must agree.
	if !reflect.DeepEqual(idlResults["euter"], idlResults["ource"]) {
		t.Errorf("IDL euter %v != ource %v", idlResults["euter"], idlResults["ource"])
	}
	if !reflect.DeepEqual(idlResults["euter"], idlResults["chwab"]) {
		t.Errorf("IDL euter %v != chwab %v", idlResults["euter"], idlResults["chwab"])
	}

	// Relalg baselines.
	fromEuter, err := AnyAboveEuter(u, threshold)
	if err != nil {
		t.Fatal(err)
	}
	fromChwab, err := AnyAboveChwab(u, ds.ChwabName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	fromOurce, err := AnyAboveOurce(u, ds.OurceName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromEuter, idlResults["euter"]) {
		t.Errorf("relalg euter %v != IDL %v", fromEuter, idlResults["euter"])
	}
	if !reflect.DeepEqual(fromChwab, idlResults["chwab"]) {
		t.Errorf("relalg chwab %v != IDL %v", fromChwab, idlResults["chwab"])
	}
	if !reflect.DeepEqual(fromOurce, idlResults["ource"]) {
		t.Errorf("relalg ource %v != IDL %v", fromOurce, idlResults["ource"])
	}

	// Datalog baselines — and the program-size claim.
	dlE, rulesE, err := DatalogEuter(u, threshold)
	if err != nil {
		t.Fatal(err)
	}
	dlO, rulesO, err := DatalogOurce(u, ds.OurceName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	dlC, rulesC, err := DatalogChwab(u, ds.ChwabName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if rulesE != 1 {
		t.Errorf("euter Datalog program = %d rules, want 1", rulesE)
	}
	if rulesO != len(ds.Stocks) || rulesC != len(ds.Stocks) {
		t.Errorf("chwab/ource Datalog programs = %d/%d rules, want %d each (linear in schema)",
			rulesC, rulesO, len(ds.Stocks))
	}
	for name, db := range map[string]*datalog.DB{"euter": dlE, "ource": dlO, "chwab": dlC} {
		rows, err := db.Query(datalog.P("above", datalog.V("S")))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range rows {
			names = append(names, string(r["S"].(object.Str)))
		}
		sortStrings(names)
		if !reflect.DeepEqual(names, idlResults["euter"]) {
			t.Errorf("datalog %s %v != IDL %v", name, names, idlResults["euter"])
		}
	}
}

func TestHighestPerDayAgrees(t *testing.T) {
	u, ds := Universe(Config{Stocks: 8, Days: 12, Seed: 21})
	e := engineOn(u)

	baseline, err := HighestPerDayEuter(u)
	if err != nil {
		t.Fatal(err)
	}
	fromChwab, err := HighestPerDayChwab(u, ds.ChwabName)
	if err != nil {
		t.Fatal(err)
	}
	fromOurce, err := HighestPerDayOurce(u, ds.OurceName)
	if err != nil {
		t.Fatal(err)
	}
	// Ties make winner identity ambiguous; compare dates and prices,
	// which are unique per day.
	if len(baseline) != len(ds.Dates) {
		t.Fatalf("winners = %d, want %d", len(baseline), len(ds.Dates))
	}
	for i := range baseline {
		if baseline[i].Price != fromChwab[i].Price || baseline[i].Price != fromOurce[i].Price {
			t.Errorf("day %v: euter %d, chwab %d, ource %d",
				baseline[i].Date, baseline[i].Price, fromChwab[i].Price, fromOurce[i].Price)
		}
	}

	// IDL (euter form): winning prices must match.
	ans := q(t, e, QueryHighestPerDay()["euter"])
	got := map[object.Date]int{}
	for _, r := range ans.Rows() {
		got[r.Get("D").(object.Date)] = int(r.Get("P").(object.Int))
	}
	for _, w := range baseline {
		if got[w.Date] != w.Price {
			t.Errorf("IDL winner on %v = %d, want %d", w.Date, got[w.Date], w.Price)
		}
	}
}

func TestCrossJoinAgrees(t *testing.T) {
	u, ds := Universe(Config{Stocks: 6, Days: 8, Seed: 31})
	e := engineOn(u)
	matches, err := CrossJoinChwabOurce(u, ds.Stocks)
	if err != nil {
		t.Fatal(err)
	}
	// No discrepancies: every (stock, day) agrees.
	if len(matches) != 6*8 {
		t.Fatalf("baseline matches = %d, want 48", len(matches))
	}
	ans := q(t, e, QueryCrossJoin)
	if ans.Len() != len(matches) {
		t.Errorf("IDL matches = %d, baseline = %d", ans.Len(), len(matches))
	}

	// With discrepancies, both engines must shrink identically.
	u2, ds2 := Universe(Config{Stocks: 6, Days: 8, Seed: 31, Discrepancies: 10})
	e2 := engineOn(u2)
	matches2, err := CrossJoinChwabOurce(u2, ds2.Stocks)
	if err != nil {
		t.Fatal(err)
	}
	ans2 := q(t, e2, QueryCrossJoin)
	if ans2.Len() != len(matches2) {
		t.Errorf("with discrepancies: IDL %d, baseline %d", ans2.Len(), len(matches2))
	}
	if len(matches2) >= len(matches) {
		t.Error("discrepancies should remove some matches")
	}
}

func TestUnifiedViewCountsWithDiscrepancies(t *testing.T) {
	u, ds := Universe(Config{Stocks: 5, Days: 6, Seed: 41, Discrepancies: 7})
	e := engineOn(u)
	for _, src := range RulesUnified {
		mustRule(t, e, src)
	}
	mustRule(t, e, RulePnew)
	// p holds base facts ∪ discrepant chwab quotes.
	distinct := countDistinctQuotes(ds)
	ans := q(t, e, "?.dbI.p(.date=D,.stk=S,.price=P)")
	if ans.Len() != distinct {
		t.Errorf("p rows = %d, want %d", ans.Len(), distinct)
	}
	// pnew resolves to exactly one price per (stock, day).
	ans = q(t, e, "?.dbI.pnew(.date=D,.stk=S,.price=P)")
	if ans.Len() != len(ds.Stocks)*len(ds.Dates) {
		t.Errorf("pnew rows = %d, want %d", ans.Len(), len(ds.Stocks)*len(ds.Dates))
	}
}

func countDistinctQuotes(ds *Dataset) int {
	n := 0
	for s := range ds.Price {
		for d := range ds.Price[s] {
			n++
			if ds.ChwabPrice[s][d] != ds.Price[s][d] {
				n++
			}
		}
	}
	return n
}

func TestRoundTripFidelity(t *testing.T) {
	// Figure 1 end to end at generated scale: D_i -> U -> D_i' ≡ D_i.
	u, ds := Universe(Config{Stocks: 7, Days: 9, Seed: 51})
	e := engineOn(u)
	for _, src := range RulesUnified {
		mustRule(t, e, src)
	}
	for _, src := range RulesCustomized {
		mustRule(t, e, src)
	}
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	// dbE.r ≡ euter.r
	baseE, _ := getRelation(u, "euter", "r")
	viewE, err := getRelation(eff, "dbE", "r")
	if err != nil {
		t.Fatal(err)
	}
	if !baseE.Equal(viewE) {
		t.Error("dbE.r != euter.r (round trip broken)")
	}
	// dbC.r ≡ chwab.r
	baseC, _ := getRelation(u, "chwab", "r")
	viewC, err := getRelation(eff, "dbC", "r")
	if err != nil {
		t.Fatal(err)
	}
	if !baseC.Equal(viewC) {
		t.Errorf("dbC.r != chwab.r (round trip broken):\nbase %d rows, view %d rows",
			baseC.Len(), viewC.Len())
	}
	// dbO.s ≡ ource.s for every stock.
	for _, s := range ds.OurceName {
		baseO, _ := getRelation(u, "ource", s)
		viewO, err := getRelation(eff, "dbO", s)
		if err != nil {
			t.Fatalf("dbO.%s missing: %v", s, err)
		}
		if !baseO.Equal(viewO) {
			t.Errorf("dbO.%s != ource.%s", s, s)
		}
	}
}

// --- helpers ---

func engineOn(u *object.Tuple) *core.Engine {
	e := core.NewEngine()
	u.Each(func(db string, v object.Object) bool {
		e.Base().Put(db, v)
		return true
	})
	e.Invalidate()
	return e
}

func q(t testing.TB, e *core.Engine, src string) *core.Answer {
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

func mustRule(t testing.TB, e *core.Engine, src string) {
	t.Helper()
	r, err := parser.ParseRule(src)
	if err != nil {
		t.Fatalf("parse rule %q: %v", src, err)
	}
	if err := e.AddRule(r); err != nil {
		t.Fatalf("add rule %q: %v", src, err)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
