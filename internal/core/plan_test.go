package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/parser"
)

// Planner and plan-cache unit tests (DESIGN.md §11): fingerprint
// stability, hit/stale/miss/cold outcomes, LRU bounds, prepared-query
// freshness, and the per-relation index-cache invalidation the planner
// work rides on.

func mustParse(t testing.TB, src string) *ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func TestFingerprintStability(t *testing.T) {
	// Identical text parses to identical fingerprints across parses.
	a := Fingerprint(mustParse(t, "?.euter.r(.stkCode=S, .clsPrice>200)"))
	b := Fingerprint(mustParse(t, "?.euter.r(.stkCode=S, .clsPrice>200)"))
	if a != b {
		t.Fatalf("same query text fingerprints differently: %x vs %x", a, b)
	}
	// The key is the shape: statements that differ only in the values
	// of their value-position literals share it.
	for _, pair := range [][2]string{
		{"?.euter.r(.stkCode=S, .clsPrice>200)", "?.euter.r(.stkCode=S, .clsPrice>201)"},
		{"?.euter.r(.stkCode=hp, .date=D)", "?.euter.r(.stkCode=ibm, .date=D)"},
		{"?.euter.r(.clsPrice=P), Q = P + 1", "?.euter.r(.clsPrice=P), Q = P + 7"},
		{"?.X.Y, X = ource", "?.X.Y, X = chwab"},
	} {
		if a, b := Fingerprint(mustParse(t, pair[0])), Fingerprint(mustParse(t, pair[1])); a != b {
			t.Errorf("literal variants fingerprint differently: %q %x vs %q %x", pair[0], a, pair[1], b)
		}
	}
	// Structurally distinct queries must not collide pairwise. Names are
	// schema and a literal's kind is part of the shape.
	variants := []string{
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.euter.r(.stkCode=S, .clsPrice>200.5)",
		"?.euter.r(.stkCode=S, .clsPrice>hp)",
		"?.euter.r(.stkCode=S, .clsPrice<200)",
		"?.euter.r(.stkCode=T, .clsPrice>200)",
		"?.euter.r(.stkCode=S)",
		"?.chwab.r(.stkCode=S, .clsPrice>200)",
		"?.euter.r~(.stkCode=S, .clsPrice>200)",
		"?.euter.r(.stkCode=S), .euter.r(.clsPrice>200)",
		"?.X.Y",
		"?.X.Y, X = ource",
		"?.euter.s(.stkCode=S, .clsPrice>200)",
		"?.euter.r(.stkCode=S, .price>200)",
	}
	seen := map[uint64]string{}
	for _, src := range variants {
		fp := Fingerprint(mustParse(t, src))
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %q and %q both hash to %x", prev, src, fp)
		}
		seen[fp] = src
	}
}

// planOutcome runs a query and returns the plan-cache outcome it reports.
func planOutcome(t testing.TB, e *Engine, src string) string {
	t.Helper()
	ans, err := e.Query(mustParse(t, src))
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	if ans.Plan == nil {
		t.Fatalf("query %q: no plan info attached", src)
	}
	return ans.Plan.Cache
}

func TestPlanCacheOutcomes(t *testing.T) {
	e := newStockEngine(t)
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"

	if got := planOutcome(t, e, query); got != "miss" {
		t.Fatalf("first run: outcome %q, want miss", got)
	}
	if got := planOutcome(t, e, query); got != "hit" {
		t.Fatalf("second run: outcome %q, want hit", got)
	}

	// A mutation elsewhere bumps the epoch but leaves every dependency of
	// this plan untouched: revalidation succeeds, no recompile.
	before := e.Epoch()
	exec(t, e, "?.ource.hp+(.date=3/9/85, .clsPrice=70)")
	if after := e.Epoch(); after <= before {
		t.Fatalf("epoch did not advance on mutation: %d -> %d", before, after)
	}
	if got := planOutcome(t, e, query); got != "stale" {
		t.Fatalf("after unrelated update: outcome %q, want stale", got)
	}

	// A mutation of the queried relation moves its set version: the plan
	// fails validation and recompiles.
	exec(t, e, "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)")
	if got := planOutcome(t, e, query); got != "miss" {
		t.Fatalf("after relevant update: outcome %q, want miss", got)
	}

	st := e.PlanCacheStats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("counter drift: %+v, want 2 hits (one revalidated) and 2 misses", st)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := NewEngineWithOptions(Options{NoPlanCache: true})
	buildStockBase(t, e)
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"
	for i := 0; i < 2; i++ {
		if got := planOutcome(t, e, query); got != "cold" {
			t.Fatalf("run %d: outcome %q, want cold", i, got)
		}
	}
	if st := e.PlanCacheStats(); st.Size != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache accumulated state: %+v", st)
	}
}

func TestSetPlanCachingToggle(t *testing.T) {
	e := newStockEngine(t)
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"
	planOutcome(t, e, query) // miss, populates
	e.SetPlanCaching(false)
	if got := planOutcome(t, e, query); got != "cold" {
		t.Fatalf("caching off: outcome %q, want cold", got)
	}
	e.SetPlanCaching(true)
	if got := planOutcome(t, e, query); got != "hit" {
		t.Fatalf("caching back on: outcome %q, want hit (resident plan survives the toggle)", got)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := NewEngineWithOptions(Options{PlanCacheSize: 2})
	buildStockBase(t, e)
	// Three shapes: literal variants of one shape would share a plan.
	queries := []string{
		"?.euter.r(.stkCode=hp, .clsPrice=P)",
		"?.euter.r(.stkCode=hp, .clsPrice=Q)",
		"?.euter.r(.stkCode=hp, .date=D)",
	}
	for _, src := range queries {
		planOutcome(t, e, src)
	}
	st := e.PlanCacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 distinct queries at capacity 2: %+v, want size 2 / 1 eviction", st)
	}
	// The oldest entry was evicted; re-running it misses, and evicts the
	// second-oldest in turn.
	if got := planOutcome(t, e, queries[0]); got != "miss" {
		t.Fatalf("evicted query re-run: outcome %q, want miss", got)
	}
	// The most recently used entry is still resident.
	if got := planOutcome(t, e, queries[2]); got != "hit" {
		t.Fatalf("MRU query re-run: outcome %q, want hit", got)
	}
}

func TestClearPlanCache(t *testing.T) {
	e := newStockEngine(t)
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"
	planOutcome(t, e, query)
	planOutcome(t, e, query)
	e.ClearPlanCache()
	if st := e.PlanCacheStats(); st.Size != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("clear should empty the cache and keep counters: %+v", st)
	}
	if got := planOutcome(t, e, query); got != "miss" {
		t.Fatalf("after clear: outcome %q, want miss", got)
	}
}

func TestPreparedQueryStaysFresh(t *testing.T) {
	e := newStockEngine(t)
	pq, err := e.Prepare(mustParse(t, "?.euter.r(.stkCode=hp, .clsPrice=P)"))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := pq.Query()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 || ans.Plan.Cache != "hit" {
		t.Fatalf("first prepared run: %d rows outcome %q, want 3 rows / hit", ans.Len(), ans.Plan.Cache)
	}

	// Mutating the queried relation must be visible on the next execution:
	// the plan recompiles, and the answer includes the new tuple. A read
	// of the same shape with another literal in between leaves the
	// prepared statement's own literal in place, recompile included.
	q(t, e, "?.euter.r(.stkCode=ibm, .clsPrice=P)")
	exec(t, e, "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)")
	ans, err = pq.Query()
	if err != nil {
		t.Fatal(err)
	}
	if ans.String() != "P\n50\n55\n62\n70" {
		t.Fatalf("prepared answer after the insert: %q, want hp's four prices", ans)
	}
	if ans.Plan.Cache != "miss" {
		t.Fatalf("after relevant update: outcome %q, want miss (recompiled)", ans.Plan.Cache)
	}

	// A mutation elsewhere revalidates without recompiling.
	exec(t, e, "?.ource.hp+(.date=3/9/85, .clsPrice=70)")
	ans, err = pq.Query()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Plan.Cache != "stale" {
		t.Fatalf("after unrelated update: outcome %q, want stale", ans.Plan.Cache)
	}
}

func TestPrepareRejectsUpdates(t *testing.T) {
	e := newStockEngine(t)
	if _, err := e.Prepare(mustParse(t, "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)")); err == nil {
		t.Fatal("Prepare accepted an update request")
	}
}

// TestIndexCacheSurvivesUnrelatedUpdate is the regression test for
// per-relation index invalidation: an update to one relation must not
// discard another relation's hash index. Both relations exceed the
// 16-element index threshold; equality probes build their indexes, then a
// mutation of dbA.r must leave dbB.r's index reusable (no rebuild on the
// next probe) while dbA.r's own index rebuilds.
func TestIndexCacheSurvivesUnrelatedUpdate(t *testing.T) {
	e := NewEngine()
	u := e.Base()
	for _, name := range []string{"dbA", "dbB"} {
		rel := object.NewSet()
		for i := 0; i < 24; i++ {
			rel.Add(object.TupleOf("k", i%6, "v", fmt.Sprintf("%s-%d", name, i)))
		}
		d := object.NewTuple()
		d.Put("r", rel)
		u.Put(name, d)
	}
	e.Invalidate()

	builds := func() uint64 { return e.Stats().IndexBuilds }
	q(t, e, "?.dbA.r(.k=3, .v=V)")
	q(t, e, "?.dbB.r(.k=3, .v=V)")
	after := builds()
	if after == 0 {
		t.Fatal("equality probes built no indexes; fixture below the index threshold?")
	}

	// Warm re-runs reuse both indexes.
	q(t, e, "?.dbA.r(.k=4, .v=V)")
	q(t, e, "?.dbB.r(.k=4, .v=V)")
	if got := builds(); got != after {
		t.Fatalf("warm probes rebuilt indexes: %d -> %d builds", after, got)
	}

	// Mutate dbA only. dbB's index must survive: its next probe may not
	// rebuild anything.
	exec(t, e, "?.dbA.r+(.k=99, .v=fresh)")
	q(t, e, "?.dbB.r(.k=5, .v=V)")
	if got := builds(); got != after {
		t.Fatalf("update to dbA.r invalidated dbB.r's index: %d -> %d builds", after, got)
	}

	// dbA's index, by contrast, rebuilds exactly once on next use.
	q(t, e, "?.dbA.r(.k=5, .v=V)")
	if got := builds(); got != after+1 {
		t.Fatalf("dbA.r probe after mutation: %d -> %d builds, want exactly one rebuild", after, got)
	}
}

// TestPlanSharedAcrossLiterals: statements that differ only in their
// value literals share one plan — one resident plan per shape, over the
// euter, chwab and ource point lookups and a two-key probe of the big
// relation — and each answers, explains and analyzes exactly as a cold
// compile of itself would, its own literals in every rendered step.
func TestPlanSharedAcrossLiterals(t *testing.T) {
	dates := []string{"3/1/85", "3/2/85", "3/3/85"}
	var shapes [][]string
	var euter []string
	for _, s := range fixStocks {
		for _, d := range dates {
			euter = append(euter, fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=P)", s, d))
		}
	}
	shapes = append(shapes, euter)
	for _, s := range fixStocks {
		// A stock is an attribute name in chwab and a relation name in
		// ource: schema, so each stock is a shape of its own.
		var chwab, ource []string
		for _, d := range dates {
			chwab = append(chwab, fmt.Sprintf("?.chwab.r(.date=%s, .%s=P)", d, s))
			ource = append(ource, fmt.Sprintf("?.ource.%s(.date=%s, .clsPrice=P)", s, d))
		}
		shapes = append(shapes, chwab, ource)
	}
	var big []string
	for i := range 10 {
		big = append(big, fmt.Sprintf("?.big.r(.stkCode=stk%03d, .date=%s, .clsPrice=P), P > %d", i, dates[i%3], 40+i))
	}
	shapes = append(shapes, big)

	shared := NewEngine()
	buildStockBase(t, shared)
	buildBigBase(t, shared, 32)
	tracer := obs.NewTracer(1)
	shared.SetTracer(tracer)
	cold := NewEngineWithOptions(Options{UseIndex: true, NoPlanCache: true})
	buildStockBase(t, cold)
	buildBigBase(t, cold, 32)
	ctx := context.Background()
	for _, variants := range shapes {
		for _, src := range variants {
			q := mustParse(t, src)
			a, err := shared.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			b, err := cold.Query(q)
			if err != nil {
				t.Fatalf("%s cold: %v", src, err)
			}
			if a.String() != b.String() || fmt.Sprint(a.Rows()) != fmt.Sprint(b.Rows()) {
				t.Errorf("%s: shared plan answers\n%s\ncold compile\n%s", src, a, b)
			}
			for i, span := range tracer.Recent()[0].Children {
				if want := conjunctLabel(q.Body.Conjuncts[i]); span.Name != want {
					t.Errorf("%s: traced conjunct %d is %q, want %q", src, i+1, span.Name, want)
				}
			}
			x, err := shared.ExplainQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			y, err := cold.ExplainQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := y.String(); x.String() != want {
				t.Errorf("%s: EXPLAIN over the shared plan\n%s\nwant\n%s", src, x, want)
			}
			xa, _, err := shared.ExplainAnalyzeQuery(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for i, step := range xa.Steps {
				if step.Conjunct != y.Steps[i].Conjunct || step.Analyze == nil {
					t.Errorf("%s: EXPLAIN ANALYZE step %d renders %q, want %q with actuals", src, i+1, step.Conjunct, y.Steps[i].Conjunct)
				}
			}
		}
	}
	if st := shared.PlanCacheStats(); st.Size != len(shapes) {
		t.Errorf("%d resident plans for %d shapes: %+v", st.Size, len(shapes), st)
	}
}

// TestSharedPlanConcurrentReads: readers running one shape's shared plan
// at the same time, each with its own literals, each get their own
// answer — a read's literals live in its substitution, never in the plan
// — while their two-key probes share the relation's one index.
func TestSharedPlanConcurrentReads(t *testing.T) {
	e := bigEngine(t, DefaultOptions(), 64)
	cold := bigEngine(t, Options{UseIndex: true, NoPlanCache: true}, 64)
	var queries []*ast.Query
	var want []string
	for i := range 10 {
		src := fmt.Sprintf("?.big.r(.stkCode=stk%03d, .date=%s, .clsPrice=P)", i, fixDates[i%len(fixDates)])
		queries = append(queries, mustParse(t, src))
		want = append(want, q(t, cold, src).String())
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 50 {
				i := (g*7 + n) % len(queries)
				ans, err := e.Query(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if ans.String() != want[i] {
					t.Errorf("%s: %q, want %q", queries[i], ans, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := e.PlanCacheStats(); st.Size != 1 {
		t.Errorf("%d resident plans for one shape: %+v", st.Size, st)
	}
}
