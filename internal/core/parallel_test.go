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

// Parallel-evaluation tests: every observable — answer rows and their
// order, derived overlays and their insertion order, errors, evaluator
// counters — must be byte-identical to sequential evaluation at any
// worker count (DESIGN.md §10).

// buildBigBase populates a "big" database large enough to partition
// (minPartition is 16): n price rows in euter's schema plus a chwab-style
// relation keyed by date, deterministic contents.
func buildBigBase(t testing.TB, e *Engine, n int) {
	t.Helper()
	u := e.Base()
	bigR := object.NewSet()
	for i := 0; i < n; i++ {
		d := fixDates[i%len(fixDates)]
		s := fmt.Sprintf("stk%03d", i%10)
		bigR.Add(object.TupleOf("date", d, "stkCode", s, "clsPrice", 20+(i*37)%180))
	}
	big := object.NewTuple()
	big.Put("r", bigR)
	u.Put("big", big)
	e.Invalidate()
}

// bigEngine returns an engine with both the small stock fixture and the
// big partitionable relation, configured with the given options.
func bigEngine(t testing.TB, opts Options, n int) *Engine {
	t.Helper()
	e := NewEngineWithOptions(opts)
	buildStockBase(t, e)
	buildBigBase(t, e, n)
	return e
}

// rowsIdentical asserts two answers agree byte-for-byte: same variables,
// same rows in the same order.
func rowsIdentical(t *testing.T, label string, seq, par *Answer) {
	t.Helper()
	if got, want := par.String(), seq.String(); got != want {
		t.Fatalf("%s: answer mismatch\nsequential: %s\nparallel:   %s", label, want, got)
	}
	if par.Len() != seq.Len() {
		t.Fatalf("%s: row count mismatch: sequential %d, parallel %d", label, seq.Len(), par.Len())
	}
	for i := 0; i < seq.Len(); i++ {
		for _, v := range seq.Vars {
			sv, pv := seq.Row(i).Get(v), par.Row(i).Get(v)
			if sv == nil || pv == nil || !sv.Equal(pv) {
				t.Fatalf("%s: row %d differs at %s: sequential %v, parallel %v", label, i, v, sv, pv)
			}
		}
	}
}

// parallelQueries is the shape mix the equivalence tests run: plain
// filtered scans, joins, negation over the partitioned set, higher-order
// attribute/relation variables, constraints, and sub-threshold scans.
var parallelQueries = []string{
	// Filtered full scan of the partitioned set.
	"?.big.r(.stkCode=S, .clsPrice>150)",
	// Projection with duplicate rows collapsing in arrival order.
	"?.big.r(.stkCode=S)",
	// Self-join plus negation: the partitioned set re-enumerated in full.
	"?.big.r(.date=D,.stkCode=S,.clsPrice=P), .big.r~(.date=D, .clsPrice>P)",
	// Join against a different relation.
	"?.big.r(.date=D, .stkCode=S, .clsPrice=P), .euter.r(.date=D, .clsPrice=P)",
	// Higher-order: relation name quantified, no static scan target.
	"?.ource.S(.clsPrice>200)",
	// Attribute name quantified (chwab schema).
	"?.chwab.r(.S>200)",
	// Constraint after the scan.
	"?.big.r(.stkCode=S, .clsPrice=P), P > 190",
	// Point lookup the index answers when enabled.
	"?.big.r(.stkCode=\"stk003\", .clsPrice=P)",
	// Small set, below the partition threshold.
	"?.euter.r(.stkCode=S, .clsPrice>60)",
	// Empty result.
	"?.big.r(.clsPrice>100000)",
	// Variable-free truth query.
	"?.big.r(.clsPrice>150)",
}

// TestParallelQueryMatchesSequential runs the shape mix at several worker
// counts and option sets, byte-comparing answers and counters against
// workers=0.
func TestParallelQueryMatchesSequential(t *testing.T) {
	optionSets := map[string]Options{
		"default":    DefaultOptions(),
		"noindex":    {MaxIterations: 10000},
		"noschedule": {UseIndex: true, NoSchedule: true, MaxIterations: 10000},
	}
	for optName, base := range optionSets {
		seqEng := bigEngine(t, base, 100)
		for _, src := range parallelQueries {
			query, err := parser.ParseQuery(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			seqEng.SetWorkers(0)
			seq, err := seqEng.Query(query)
			if err != nil {
				t.Fatalf("%s: sequential %q: %v", optName, src, err)
			}
			seqEng.ResetStats()
			if _, err := seqEng.Query(query); err != nil {
				t.Fatal(err)
			}
			seqStats := seqEng.Stats()
			for _, workers := range []int{1, 2, 3, 4, 8} {
				seqEng.SetWorkers(workers)
				par, err := seqEng.Query(query)
				if err != nil {
					t.Fatalf("%s: workers=%d %q: %v", optName, workers, src, err)
				}
				label := fmt.Sprintf("%s workers=%d %q", optName, workers, src)
				rowsIdentical(t, label, seq, par)
				seqEng.ResetStats()
				if _, err := seqEng.Query(query); err != nil {
					t.Fatal(err)
				}
				if got := seqEng.Stats(); got != seqStats {
					t.Errorf("%s: stats diverge: sequential %+v, parallel %+v", label, seqStats, got)
				}
			}
			seqEng.SetWorkers(0)
		}
	}
}

// TestParallelErrorMatchesSequential: when evaluation fails mid-scan the
// parallel path must surface the error the sequential evaluator hits
// first — the message names the failing operands, so an error from any
// later element would differ.
func TestParallelErrorMatchesSequential(t *testing.T) {
	src := "?.big.r(.stkCode=S, .clsPrice=(S + 1))"
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	e := bigEngine(t, DefaultOptions(), 100)
	_, seqErr := e.Query(query)
	if seqErr == nil {
		t.Fatalf("sequential %q: expected error", src)
	}
	for _, workers := range []int{2, 4, 8} {
		e.SetWorkers(workers)
		_, parErr := e.Query(query)
		if parErr == nil {
			t.Fatalf("workers=%d %q: expected error", workers, src)
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("workers=%d: error diverges\nsequential: %v\nparallel:   %v", workers, seqErr, parErr)
		}
	}
}

// overlayString materializes the engine's views and renders the overlay
// in insertion order, which byte-captures the exact fact application
// sequence.
func overlayString(t *testing.T, e *Engine) (string, RecomputeStats) {
	t.Helper()
	e.Invalidate()
	overlay, err := e.DerivedOverlay()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return overlay.String(), e.LastRecompute()
}

// TestParallelMaterializeMatchesSequential checks view refreshes with
// partitioned rule bodies: the unified stock view (independent rules, one
// head), a reconciliation rule reading that view, and the customized
// re-renderings must produce a byte-identical overlay at any worker
// count.
func TestParallelMaterializeMatchesSequential(t *testing.T) {
	rules := []string{
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .big.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbI.pnew+(.date=D,.stk=S,.price=P) <- .dbI.p(.date=D,.stk=S,.price=P), .dbI.p~(.date=D,.stk=S,.price>P)",
		".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	}
	build := func(workers int) *Engine {
		e := bigEngine(t, DefaultOptions(), 60)
		e.SetWorkers(workers)
		for _, r := range rules {
			mustRule(t, e, r)
		}
		return e
	}
	seqOverlay, seqStats := overlayString(t, build(0))
	for _, workers := range []int{2, 4, 8} {
		parOverlay, parStats := overlayString(t, build(workers))
		if parOverlay != seqOverlay {
			t.Fatalf("workers=%d: overlay diverges from sequential\nsequential: %.200s…\nparallel:   %.200s…", workers, seqOverlay, parOverlay)
		}
		if parStats != seqStats {
			t.Errorf("workers=%d: recompute stats diverge: sequential %+v, parallel %+v", workers, seqStats, parStats)
		}
	}
}

// TestParallelRecursiveMatchesSequential covers a recursive program — the
// second rule reads the first rule's head, so its stratum iterates, and
// the fixpoint must still converge to the identical overlay.
func TestParallelRecursiveMatchesSequential(t *testing.T) {
	build := func(workers int) *Engine {
		e := NewEngineWithOptions(DefaultOptions())
		u := e.Base()
		edges := object.NewSet()
		for i := 0; i < 24; i++ {
			edges.Add(object.TupleOf("from", fmt.Sprintf("n%02d", i), "to", fmt.Sprintf("n%02d", i+1)))
		}
		g := object.NewTuple()
		g.Put("edge", edges)
		u.Put("g", g)
		e.Invalidate()
		e.SetWorkers(workers)
		mustRule(t, e, ".g.tc+(.from=X,.to=Y) <- .g.edge(.from=X,.to=Y)")
		mustRule(t, e, ".g.tc+(.from=X,.to=Y) <- .g.edge(.from=X,.to=Z), .g.tc(.from=Z,.to=Y)")
		return e
	}
	seqOverlay, seqStats := overlayString(t, build(0))
	if !strings.Contains(seqOverlay, "tc") {
		t.Fatalf("expected tc relation in overlay, got %.120s…", seqOverlay)
	}
	for _, workers := range []int{2, 4} {
		parOverlay, parStats := overlayString(t, build(workers))
		if parOverlay != seqOverlay {
			t.Fatalf("workers=%d: recursive overlay diverges", workers)
		}
		if parStats != seqStats {
			t.Errorf("workers=%d: recompute stats diverge: sequential %+v, parallel %+v", workers, seqStats, parStats)
		}
	}
}

// TestSplitChunks pins the contiguity invariant the merge relies on.
func TestSplitChunks(t *testing.T) {
	elems := make([]object.Object, 10)
	for i := range elems {
		elems[i] = object.Int(i)
	}
	for _, n := range []int{1, 2, 3, 4, 10, 15} {
		chunks := splitChunks(elems, n)
		var flat []object.Object
		for _, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("n=%d: empty chunk", n)
			}
			flat = append(flat, c...)
		}
		if len(flat) != len(elems) {
			t.Fatalf("n=%d: lost elements: %d != %d", n, len(flat), len(elems))
		}
		for i := range flat {
			if !flat[i].Equal(elems[i]) {
				t.Fatalf("n=%d: order changed at %d", n, i)
			}
		}
	}
}

// TestScanTargetSkipsIndexableScans: a scan the index would answer keeps
// its sequential probe path; partitioning it would change candidate
// enumeration.
func TestScanTargetSkipsIndexableScans(t *testing.T) {
	e := bigEngine(t, DefaultOptions(), 100)
	eff := e.Base()
	query, err := parser.ParseQuery("?.big.r(.stkCode=\"stk003\", .clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	if target := scanTargetOf(e, query, eff); target != nil {
		t.Errorf("index-eligible scan: scanTarget = %v, want nil", target)
	}
	query2, err := parser.ParseQuery("?.big.r(.stkCode=S, .clsPrice>150)")
	if err != nil {
		t.Fatal(err)
	}
	if target := scanTargetOf(e, query2, eff); target == nil {
		t.Error("plain scan: scanTarget = nil, want big.r")
	} else if target.Len() != 100 {
		t.Errorf("plain scan: wrong set, len %d", target.Len())
	}
	// Negated first conjunct: nothing to partition.
	query3, err := parser.ParseQuery("?.big.r~(.clsPrice>150)")
	if err != nil {
		t.Fatal(err)
	}
	if target := scanTargetOf(e, query3, eff); target != nil {
		t.Error("negation: scanTarget should be nil")
	}
}

// TestScanTargetIsExplainStepOne: the parallel scan partitions the set
// that the scheduler's first pick reads, and that pick is EXPLAIN's step
// 1 — ranked, under NoSchedule, and through a nested conjunct list.
func TestScanTargetIsExplainStepOne(t *testing.T) {
	parse := func(src string) *ast.Query {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	scan := func(rel string, x ast.Expr) *ast.AttrExpr { return ast.Attr(rel, &ast.SetExpr{X: x}) }
	// One conjunct over ource whose nested list of two relation scans
	// schedules. Built directly: in the syntax, parentheses after .ource
	// would open a set expression.
	nested := &ast.Query{Body: ast.Conj(ast.Attr("ource", ast.Conj(
		scan("hp", ast.Conj(ast.Attr("clsPrice", ast.Gt(ast.Var{Name: "P"})))),
		scan("ibm", ast.Conj(ast.Attr("clsPrice", ast.Eq(ast.Var{Name: "P"})))),
	)))}
	ranked := parse("?.euter.r(.stkCode=S, .clsPrice=P), .chwab.r(.date=D)")
	unsafe := parse("?.euter.r(.clsPrice>P), .chwab.r(.date=D, .hp=P)")
	for _, tc := range []struct {
		q          *ast.Query
		noSchedule bool
		step1      int    // the source conjunct EXPLAIN lists first
		db, rel    string // the set scanTarget partitions
	}{
		// Ranked: chwab.r (3 elements) before euter.r (9).
		{ranked, false, 1, "chwab", "r"},
		{ranked, true, 0, "euter", "r"},
		// Safety: euter.r consumes P, which only chwab.r binds.
		{unsafe, false, 1, "chwab", "r"},
		{unsafe, true, 0, "euter", "r"},
		// ource.hp consumes P, which only ource.ibm binds.
		{nested, false, 0, "ource", "ibm"},
		{nested, true, 0, "ource", "hp"},
	} {
		opts := DefaultOptions()
		opts.NoSchedule = tc.noSchedule
		e := NewEngineWithOptions(opts)
		buildStockBase(t, e)
		eff, err := e.EffectiveUniverse()
		if err != nil {
			t.Fatal(err)
		}
		s := shapeOf(tc.q)
		key, lits := s.key(opts), s.lits
		an := e.compilePlan(tc.q, eff, key, e.epoch, nil).an.bind(lits)
		plan := e.planQuery(an, readView{eff: eff, opts: opts})
		if got, want := plan.Steps[0].Conjunct, tc.q.Body.Conjuncts[tc.step1].String(); got != want {
			t.Errorf("%s (NoSchedule %v): step 1 = %s, want %s", tc.q, tc.noSchedule, got, want)
		}
		got := scanTarget(an.body, eff, an, an.newEnv(), opts)
		if want := relation(t, e, tc.db, tc.rel); got != want || got != scanTarget(an.top().steps[0].c, eff, an, an.newEnv(), opts) {
			t.Errorf("%s (NoSchedule %v): scanTarget is not %s.%s, the set step 1 reads", tc.q, tc.noSchedule, tc.db, tc.rel)
		}
	}
}

// scanTargetOf compiles q's plan and resolves its partitionable scan.
func scanTargetOf(e *Engine, q *ast.Query, eff *object.Tuple) *object.Set {
	s := shapeOf(q)
	key, lits := s.key(e.opts), s.lits
	an := e.compilePlan(q, eff, key, e.epoch, nil).an.bind(lits)
	return scanTarget(an.body, eff, an, an.newEnv(), e.opts)
}

// TestParallelMetrics checks the worker instruments move when parallel
// paths actually run.
func TestParallelMetrics(t *testing.T) {
	e := bigEngine(t, DefaultOptions(), 100)
	r := obs.NewRegistry()
	e.SetMetrics(r)
	e.SetWorkers(4)
	query, err := parser.ParseQuery("?.big.r(.stkCode=S, .clsPrice>150)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(query); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter("engine.eval.parallel_ops").Value(); got == 0 {
		t.Error("parallel_ops did not move")
	}
	if got := r.Counter("engine.eval.partitions").Value(); got < 2 {
		t.Errorf("partitions = %d, want >= 2", got)
	}
	if got := r.Gauge("engine.eval.worker_busy").Value(); got != 0 {
		t.Errorf("worker_busy = %v after queries finished, want 0", got)
	}
}
