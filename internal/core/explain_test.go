package core

import (
	"context"
	"strings"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
)

func explain(t *testing.T, e *Engine, src string) *Explain {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// bigStockEngine grows euter.r past the index threshold.
func bigStockEngine(t *testing.T) *Engine {
	e := newStockEngine(t)
	rel := relation(t, e, "euter", "r")
	for i := 0; i < 50; i++ {
		rel.Add(object.TupleOf("date", object.NewDate(86, 1, 1+i%28), "stkCode", "bulk", "clsPrice", i))
	}
	e.Invalidate()
	return e
}

func TestExplainIndexVsScan(t *testing.T) {
	e := bigStockEngine(t)
	plan := explain(t, e, "?.euter.r(.stkCode=hp, .clsPrice=P)")
	if len(plan.Steps) != 1 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	if plan.Steps[0].Access != "index" {
		t.Errorf("access = %s, want index", plan.Steps[0].Access)
	}
	// Without an equality conjunct: scan.
	plan = explain(t, e, "?.euter.r(.clsPrice=P, .stkCode=S)")
	if plan.Steps[0].Access != "scan" {
		t.Errorf("access = %s, want scan", plan.Steps[0].Access)
	}
	// Index disabled: scan.
	opts := DefaultOptions()
	opts.UseIndex = false
	e2 := NewEngineWithOptions(opts)
	buildStockBase(t, e2)
	plan = explain(t, e2, "?.euter.r(.stkCode=hp)")
	if plan.Steps[0].Access != "scan" {
		t.Errorf("no-index access = %s", plan.Steps[0].Access)
	}
}

func TestExplainDeferredNegation(t *testing.T) {
	e := newStockEngine(t)
	// Negation written first must be scheduled after its binder.
	plan := explain(t, e, "?.euter.r~(.stkCode=hp, .clsPrice>P), .euter.r(.stkCode=hp,.clsPrice=P,.date=D)")
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	if plan.Steps[0].Kind != "query" {
		t.Errorf("first scheduled = %s (%s)", plan.Steps[0].Kind, plan.Steps[0].Conjunct)
	}
	if plan.Steps[1].Kind != "negation" || !plan.Steps[1].Deferred {
		t.Errorf("negation step = %+v", plan.Steps[1])
	}
	if !strings.Contains(plan.String(), "deferred") {
		t.Errorf("plan rendering missing deferral:\n%s", plan)
	}
}

func TestExplainConstraintAndBinds(t *testing.T) {
	e := newStockEngine(t)
	plan := explain(t, e, "?.X.Y, X = ource")
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	// The constraint is a pure producer of X, so it may schedule first.
	kinds := []string{plan.Steps[0].Kind, plan.Steps[1].Kind}
	found := false
	for _, k := range kinds {
		if k == "constraint" {
			found = true
		}
	}
	if !found {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestExplainRejectsUpdates(t *testing.T) {
	e := newStockEngine(t)
	q, err := parser.ParseQuery("?.euter.r+(.x=1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExplainQuery(q); err == nil {
		t.Error("explain of update request should fail")
	}
}

func TestExplainHigherOrderScan(t *testing.T) {
	e := newStockEngine(t)
	plan := explain(t, e, "?.X.Y(.stkCode)")
	if plan.Steps[0].Access != "scan" {
		t.Errorf("higher-order access = %s", plan.Steps[0].Access)
	}
	binds := plan.Steps[0].Binds
	if len(binds) != 2 {
		t.Errorf("binds = %v", binds)
	}
}

// TestExplainNoScheduleSourceOrder: under NoSchedule the evaluator runs
// conjuncts strictly left to right, so EXPLAIN lists them in source order
// with nothing deferred — even where that order is unsafe, which the
// query itself then reports.
func TestExplainNoScheduleSourceOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.NoSchedule = true
	e := NewEngineWithOptions(opts)
	buildStockBase(t, e)
	const src = "?.euter.r(.stkCode=S, .clsPrice>P), .euter.r(.stkCode=hp, .clsPrice=P)"
	plan := explain(t, e, src)
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	for i, want := range []string{".euter.r(.stkCode=S, .clsPrice>P)", ".euter.r(.stkCode=hp, .clsPrice=P)"} {
		if got := plan.Steps[i].Conjunct; got != want {
			t.Errorf("step %d = %s, want %s", i+1, got, want)
		}
		if plan.Steps[i].Deferred {
			t.Errorf("step %d deferred under NoSchedule:\n%s", i+1, plan)
		}
	}
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err == nil || !strings.Contains(err.Error(), `unsafe expression ">P"`) {
		t.Errorf("query err = %v, want the unsafe >P of the source-order run", err)
	}
}

// TestExplainIndexForBoundKeys: a join or negation step whose equality
// key an earlier step binds runs as an index probe, and EXPLAIN says so;
// its ANALYZE actuals show no scan, and probes once the step is reached.
func TestExplainIndexForBoundKeys(t *testing.T) {
	e := bigStockEngine(t)
	for _, src := range []string{
		// hp never closes highest on its day: the negation ends every path.
		"?.euter.r(.stkCode=hp, .date=D, .clsPrice=P), .euter.r(.date=D, .stkCode=S), .euter.r~(.date=D, .clsPrice>P)",
		// hp always closes lowest: every step runs.
		"?.euter.r(.stkCode=hp, .date=D, .clsPrice=P), .euter.r(.date=D, .stkCode=S), .euter.r~(.date=D, .clsPrice<P)",
	} {
		query, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := e.ExplainAnalyzeQuery(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != 3 {
			t.Fatalf("%s: steps = %d", src, len(plan.Steps))
		}
		reached := true
		for i, s := range plan.Steps {
			a := s.Analyze
			if s.Access != "index" || a.Scanned != 0 || reached && a.IndexProbes == 0 {
				t.Errorf("%s: step %d [%s/%s] %s %+v: want index, scanned=0, probes>0 once reached", src, i+1, s.Kind, s.Access, s.Conjunct, *a)
			}
			reached = a.Rows > 0
		}
	}
}
