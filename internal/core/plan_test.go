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
// stability, hit/stale/miss/cold outcomes, LRU bounds, and the
// per-relation index-cache invalidation the planner work rides on.

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

// TestPlanCacheOutcomes pins what a write does to a cached plan. A shape
// with one top-level conjunct has no schedule to choose: it hits after
// any write, and answers the written data. A two-conjunct shape is
// re-ranked after a write: kept ("stale") while the write leaves its rank
// order, recompiled ("miss") when the write flips it.
func TestPlanCacheOutcomes(t *testing.T) {
	e := newStockEngine(t)
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"

	if got := planOutcome(t, e, query); got != "miss" {
		t.Fatalf("first run: outcome %q, want miss", got)
	}
	if got := planOutcome(t, e, query); got != "hit" {
		t.Fatalf("second run: outcome %q, want hit", got)
	}

	before := e.Epoch()
	exec(t, e, "?.ource.hp+(.date=3/9/85, .clsPrice=70)")
	if after := e.Epoch(); after <= before {
		t.Fatalf("epoch did not advance on mutation: %d -> %d", before, after)
	}
	if got := planOutcome(t, e, query); got != "hit" {
		t.Fatalf("after unrelated update: outcome %q, want hit", got)
	}
	exec(t, e, "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)")
	if ans := q(t, e, query); ans.Plan.Cache != "hit" || ans.String() != "P\n50\n55\n62\n70" {
		t.Fatalf("after relevant update: outcome %q answer %q, want hit and hp's four prices", ans.Plan.Cache, ans)
	}

	// chwab.r and ource.ibm both hold 3 elements: the tie runs chwab.r
	// first, in source order.
	const join = "?.chwab.r(.date=D, .hp=P), .ource.ibm(.date=D, .clsPrice=Q)"
	for i, want := range []string{"miss", "hit"} {
		if got := planOutcome(t, e, join); got != want {
			t.Fatalf("join run %d: outcome %q, want %s", i+1, got, want)
		}
	}
	// 4 ource.ibm elements still rank after 3 chwab.r ones.
	exec(t, e, "?.ource.ibm+(.date=3/4/85, .clsPrice=170)")
	if ans := q(t, e, join); ans.Plan.Cache != "stale" || ans.Len() != 3 {
		t.Fatalf("after an order-keeping update: outcome %q, %d rows, want stale and 3", ans.Plan.Cache, ans.Len())
	}
	// 5 chwab.r elements rank after 4 ource.ibm ones: the order flips.
	exec(t, e, "?.chwab.r+(.date=3/4/85, .hp=70, .ibm=170, .sun=200), .chwab.r+(.date=3/5/85, .hp=71, .ibm=171, .sun=201)")
	if ans := q(t, e, join); ans.Plan.Cache != "miss" || ans.Len() != 4 {
		t.Fatalf("after an order-flipping update: outcome %q, %d rows, want miss and 4", ans.Plan.Cache, ans.Len())
	}

	st := e.PlanCacheStats()
	if st.Hits != 5 || st.Misses != 3 {
		t.Fatalf("counter drift: %+v, want 5 hits (one re-ranked) and 3 misses", st)
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
	e := NewEngine()
	buildStockBase(t, e)
	// One shape more than the cache holds. Names are part of a shape,
	// literals are not: literal variants of one shape would share a plan.
	shape := func(i int) string { return fmt.Sprintf("?.euter.r(.stkCode=hp, .a%d=P)", i) }
	for i := 0; i <= planCacheSize; i++ {
		planOutcome(t, e, shape(i))
	}
	st := e.PlanCacheStats()
	if st.Size != planCacheSize || st.Evictions != 1 {
		t.Fatalf("after %d distinct shapes at capacity %d: %+v, want size %d / 1 eviction",
			planCacheSize+1, planCacheSize, st, planCacheSize)
	}
	// The oldest entry was evicted; re-running it misses, and evicts the
	// second-oldest in turn.
	if got := planOutcome(t, e, shape(0)); got != "miss" {
		t.Fatalf("evicted shape re-run: outcome %q, want miss", got)
	}
	// The most recently used entry is still resident.
	if got := planOutcome(t, e, shape(planCacheSize)); got != "hit" {
		t.Fatalf("MRU shape re-run: outcome %q, want hit", got)
	}
	if got := planOutcome(t, e, shape(1)); got != "miss" {
		t.Fatalf("second-oldest shape re-run: outcome %q, want miss", got)
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

// planPair is a cached engine and a cold one (NoPlanCache) over the same
// data, written in step: the cold engine's answer, raw row order
// included, and its EXPLAIN are what a reused plan must reproduce.
type planPair struct{ cached, cold *Engine }

func newPlanPair(t *testing.T) planPair {
	t.Helper()
	p := planPair{NewEngine(), NewEngineWithOptions(Options{UseIndex: true, NoPlanCache: true})}
	for _, e := range []*Engine{p.cached, p.cold} {
		buildStockBase(t, e)
		buildBigBase(t, e, 32)
	}
	return p
}

func (p planPair) exec(t *testing.T, src string) {
	t.Helper()
	exec(t, p.cached, src)
	exec(t, p.cold, src)
}

// read runs src on both engines, requires the cached engine's answer,
// raw row order and EXPLAIN to equal the cold engine's, and returns the
// cached answer.
func (p planPair) read(t *testing.T, src string) *Answer {
	t.Helper()
	got, want := q(t, p.cached, src), q(t, p.cold, src)
	if g, w := rawRows(got), rawRows(want); g != w {
		t.Fatalf("%s: cached plan answers (%s)\n%s\ncold compile\n%s", src, got.Plan.Cache, g, w)
	}
	x, err := p.cached.ExplainQuery(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	y, err := p.cold.ExplainQuery(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatalf("%s: EXPLAIN of the cached plan\n%s\nwant\n%s", src, x, y)
	}
	return got
}

// TestWriteKeepsOneConjunctPlan: a write between two reads of a
// one-conjunct shape leaves its plan in use ("hit"), and the second read
// answers — and EXPLAIN estimates — the written data.
func TestWriteKeepsOneConjunctPlan(t *testing.T) {
	p := newPlanPair(t)
	// 9 elements over 3 stocks estimate 3 rows; 12 estimate 4.
	const src = "?.euter.r(.stkCode=hp, .clsPrice=P)"
	p.read(t, src)
	if ans := p.read(t, src); ans.Plan.Cache != "hit" || ans.Len() != 3 {
		t.Fatalf("second read: outcome %q, %d rows, want hit and 3", ans.Plan.Cache, ans.Len())
	}
	p.exec(t, "?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=63), .euter.r+(.date=3/4/85, .stkCode=ibm, .clsPrice=161), .euter.r+(.date=3/4/85, .stkCode=sun, .clsPrice=151)")
	if ans := p.read(t, src); ans.Plan.Cache != "hit" || ans.Len() != 4 {
		t.Fatalf("after a write: outcome %q, %d rows, want hit and 4", ans.Plan.Cache, ans.Len())
	}
}

// TestWriteOfNewNames: a stock new to the universe is a new attribute
// name in chwab and a new relation name in ource — the names a
// higher-order variable ranges over. A cached plan over those names
// answers the new stock on the read after the write, as a cold compile
// does.
func TestWriteOfNewNames(t *testing.T) {
	p := newPlanPair(t)
	for _, tc := range []struct{ query, write, stock string }{
		{"?.chwab.r(.date=3/4/85, .S=P)", "?.chwab.r+(.date=3/4/85, .hp=70, .zz=300)", "zz"},
		{"?.ource.S(.date=3/1/85, .clsPrice=P)", "?.ource.zz+(.date=3/1/85, .clsPrice=300)", "zz"},
	} {
		p.read(t, tc.query)
		p.exec(t, tc.write)
		ans := p.read(t, tc.query)
		if ans.Plan.Cache != "hit" || !ans.Contains(RowOf("S", tc.stock, "P", 300)) {
			t.Fatalf("%s after %s: outcome %q, answer\n%s\nwant a hit with S=%s, P=300", tc.query, tc.write, ans.Plan.Cache, ans, tc.stock)
		}
	}
}

// TestRankFlipRecompiles: a write that flips a two-conjunct plan's rank
// order recompiles it, and the new plan enumerates in the cold compile's
// order — raw rows, not just the canonical rendering — where the old
// schedule would not.
func TestRankFlipRecompiles(t *testing.T) {
	p := newPlanPair(t)
	// A cross product: its raw row order is the schedule's nesting.
	const src = "?.ource.hp(.date=D, .clsPrice=P), .chwab.r(.date=E, .sun=Q)"
	p.read(t, src)
	kept := p.read(t, src)
	// Both relations hold 3 elements: the tie runs ource.hp first, in
	// source order, and so does 3 against 4.
	p.exec(t, "?.chwab.r+(.date=3/4/85, .hp=63, .ibm=161, .sun=151)")
	if ans := p.read(t, src); ans.Plan.Cache != "stale" {
		t.Fatalf("after an order-keeping write: outcome %q, want stale", ans.Plan.Cache)
	}
	// Re-ranking a kept plan allocates nothing once the statistics of
	// the versions it reads are memoised.
	key := shapeOf(mustParse(t, src)).key(p.cached.opts)
	p.cached.planMu.Lock()
	pl := p.cached.plans.get(key, false)
	p.cached.planMu.Unlock()
	eff, err := p.cached.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { p.cached.fits(pl, eff, pl.epoch+1) }); n != 0 {
		t.Errorf("re-ranking a kept plan: %v allocations, want 0", n)
	}
	// 5 against 4 runs chwab.r first.
	p.exec(t, "?.ource.hp+(.date=3/4/85, .clsPrice=63), .ource.hp+(.date=3/5/85, .clsPrice=64)")
	flipped := p.read(t, src)
	if flipped.Plan.Cache != "miss" {
		t.Fatalf("after an order-flipping write: outcome %q, want miss", flipped.Plan.Cache)
	}
	if kept.Row(1).Get("D") != kept.Row(0).Get("D") || flipped.Row(1).Get("E") != flipped.Row(0).Get("E") {
		t.Fatalf("schedules do not show in the row order:\nbefore\n%s\nafter\n%s", rawRows(kept), rawRows(flipped))
	}
}

// TestIndexCacheSurvivesUnrelatedUpdate: an index lives on its set, so
// an update to one relation must not discard another relation's hash
// index. Both relations exceed the
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

// TestNegationRanksOnce: a relation-level negation `.euter.r~(…)` and
// the conjunct-level `~.euter.r(…)` are one filter, so both rank at 0
// rows and schedule alike.
func TestNegationRanksOnce(t *testing.T) {
	e := newStockEngine(t)
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"?.euter.r~(.date=D, .clsPrice>P)", "?~.euter.r(.date=D, .clsPrice>P)"} {
		c := mustParse(t, src).Body.Conjuncts[0]
		if got := estimateConjunct(c, eff); got != 0 {
			t.Errorf("%s ranks at %v rows, want 0", src, got)
		}
	}
}

// TestRowHintUnderConcurrentReads: two readers share one shape's plan
// with literals that give 1 row and 1 800, so each presizes from the
// other's count. Their answers equal the serial run's, and no row set is
// presized past rowHintMax (run it under -race: the hint is shared).
func TestRowHintUnderConcurrentReads(t *testing.T) {
	e := scanEngine(t, 1800)
	srcs := []string{"?.big.r(.k=K, .date=D, .price=P, .k>2798)", "?.big.r(.k=K, .date=D, .price=P, .k>999)"}
	var want []string
	for i, src := range srcs {
		ans, err := e.Query(mustParse(t, src))
		if err != nil || ans.Len() != []int{1, 1800}[i] {
			t.Fatalf("%s: %d rows, %v", src, ans.Len(), err)
		}
		want = append(want, ans.String())
	}
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, q *ast.Query) {
			defer wg.Done()
			for range 40 {
				ans, err := e.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := ans.String(); got != want[i] {
					t.Errorf("%s: concurrent answer differs from the serial one", srcs[i])
					return
				}
				if c := cap(ans.rows.links); c > rowHintMax {
					t.Errorf("%s: row set presized for %d rows, cap %d", srcs[i], c, rowHintMax)
				}
			}
		}(i, mustParse(t, src))
	}
	wg.Wait()
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if len(e.plans.m) != 1 {
		t.Fatalf("%d plans, want the one shape's", len(e.plans.m))
	}
	for _, el := range e.plans.m {
		if h := el.Value.(*planEntry).pl.rowHint(); h != 1 && h != 1800 {
			t.Errorf("row hint %d, want the last answer's 1 or 1800", h)
		}
	}
	// A count past the cap presizes for the cap.
	var pl queryPlan
	pl.noteRows(4 * rowHintMax)
	s := newRowSet(1)
	s.presize(pl.rowHint())
	if cap(s.links) != rowHintMax || len(s.heads) != 2*rowHintMax {
		t.Errorf("presized past the cap: %d links, %d buckets", cap(s.links), len(s.heads))
	}
}
