// Benchmarks B1–B8 (see DESIGN.md §5): the performance harness for the
// reproduction. The paper (SIGMOD 1991) has no measured evaluation; these
// benchmarks quantify what it argues qualitatively — one higher-order IDL
// expression versus hand-coded per-schema plans and generated first-order
// Datalog programs — plus the ablations a systems reader would ask for
// (attribute indexes, rule-level semi-naive evaluation, conjunct
// scheduling). Run with:
//
//	go test -bench=. -benchmem
package idl_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"idl"
	"idl/internal/ast"
	"idl/internal/core"
	"idl/internal/datalog"
	"idl/internal/federation"
	"idl/internal/msql"
	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// datalogAbove is the goal atom the Datalog baselines answer.
func datalogAbove() datalog.Atom {
	return datalog.P("above", datalog.V("S"))
}

// engineFor builds a core engine over a generated universe.
func engineFor(b *testing.B, cfg stocks.Config, opts core.Options) (*core.Engine, *stocks.Dataset) {
	b.Helper()
	u, ds := stocks.Universe(cfg)
	e := core.NewEngineWithOptions(opts)
	u.Each(func(db string, v object.Object) bool {
		e.Base().Put(db, v)
		return true
	})
	e.Invalidate()
	return e, ds
}

func parseQ(b *testing.B, src string) *ast.Query {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func runQuery(b *testing.B, e *core.Engine, q *ast.Query) *core.Answer {
	b.Helper()
	ans, err := e.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return ans
}

var benchSizes = []int{8, 32, 128}

// --- B1: "any stock above N" — IDL vs relalg vs Datalog, per schema ---

func BenchmarkE3AnyAbove(b *testing.B) {
	for _, n := range benchSizes {
		cfg := stocks.Config{Stocks: n, Days: 30, Seed: 7}
		e, ds := engineFor(b, cfg, core.DefaultOptions())
		u := e.Base()
		threshold := ds.MaxPrice() * 3 / 4

		queries := stocks.QueryAnyAbove(threshold)
		for _, schema := range []string{"euter", "chwab", "ource"} {
			q := parseQ(b, queries[schema])
			b.Run(fmt.Sprintf("idl/%s/stocks=%d", schema, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runQuery(b, e, q)
				}
			})
		}

		b.Run(fmt.Sprintf("relalg/euter/stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stocks.AnyAboveEuter(u, threshold); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("relalg/chwab/stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stocks.AnyAboveChwab(u, ds.ChwabName, threshold); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("relalg/ource/stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stocks.AnyAboveOurce(u, ds.OurceName, threshold); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Datalog: facts loaded and program sealed once; the benchmark
		// measures query time. The interesting number reported alongside
		// is rule count: 1 for euter, n for chwab/ource.
		dlE, rulesE, err := stocks.DatalogEuter(u, threshold)
		if err != nil {
			b.Fatal(err)
		}
		dlO, rulesO, err := stocks.DatalogOurce(u, ds.OurceName, threshold)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("datalog/euter(rules=%d)/stocks=%d", rulesE, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dlE.Query(datalogAbove()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("datalog/ource(rules=%d)/stocks=%d", rulesO, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dlO.Query(datalogAbove()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B2: cross-database join chwab × ource ---

func BenchmarkE4CrossJoin(b *testing.B) {
	for _, n := range benchSizes {
		cfg := stocks.Config{Stocks: n, Days: 30, Seed: 9}
		e, ds := engineFor(b, cfg, core.DefaultOptions())
		q := parseQ(b, stocks.QueryCrossJoin)
		b.Run(fmt.Sprintf("idl/stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
		b.Run(fmt.Sprintf("relalg/stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stocks.CrossJoinChwabOurce(e.Base(), ds.Stocks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B3: negation (all-time high per stock), indexed vs scan ---

func BenchmarkE5Negation(b *testing.B) {
	for _, useIndex := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.UseIndex = useIndex
		cfg := stocks.Config{Stocks: 16, Days: 60, Seed: 13}
		e, _ := engineFor(b, cfg, opts)
		q := parseQ(b, "?.euter.r(.stkCode=stk001,.clsPrice=P,.date=D), .euter.r~(.stkCode=stk001, .clsPrice>P)")
		name := "scan"
		if useIndex {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
	}
}

// --- B4: view materialization — semi-naive vs naive rule iteration ---

func BenchmarkViewMaterialize(b *testing.B) {
	for _, semi := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.SemiNaive = semi
		name := "naive"
		if semi {
			name = "seminaive"
		}
		for _, n := range []int{16, 64} {
			cfg := stocks.Config{Stocks: n, Days: 20, Seed: 17}
			e, _ := engineFor(b, cfg, opts)
			for _, r := range append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...) {
				rule, err := parser.ParseRule(r)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AddRule(rule); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/stocks=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.Invalidate()
					if _, err := e.EffectiveUniverse(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- B5: higher-order view fan-out: dbO grows one relation per stock ---

func BenchmarkHigherOrderViewFanout(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		cfg := stocks.Config{Stocks: n, Days: 5, Seed: 19}
		e, _ := engineFor(b, cfg, core.DefaultOptions())
		for _, r := range stocks.RulesUnified {
			addRuleB(b, e, r)
		}
		addRuleB(b, e, ".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)")
		b.Run(fmt.Sprintf("stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Invalidate()
				eff, err := e.EffectiveUniverse()
				if err != nil {
					b.Fatal(err)
				}
				dbO, _ := eff.Get("dbO")
				if dbO.(*object.Tuple).Len() != n {
					b.Fatalf("dbO has %d relations, want %d", dbO.(*object.Tuple).Len(), n)
				}
			}
		})
	}
}

// --- B6: update programs vs direct base updates ---

func BenchmarkUpdatePrograms(b *testing.B) {
	newEngine := func() *core.Engine {
		e, _ := engineFor(b, stocks.Config{Stocks: 32, Days: 30, Seed: 23}, core.DefaultOptions())
		for _, c := range append(append([]string{}, stocks.ProgramDelStk...), stocks.ProgramInsStk...) {
			cl, err := parser.ParseClause(c)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AddClause(cl); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}

	b.Run("insStk", func(b *testing.B) {
		e := newEngine()
		for i := 0; i < b.N; i++ {
			src := fmt.Sprintf("?.dbU.insStk(.stk=new%06d, .date=1/2/86, .price=%d)", i, 10+i%100)
			execB(b, e, src)
		}
	})
	b.Run("delStk", func(b *testing.B) {
		e := newEngine()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			execB(b, e, fmt.Sprintf("?.dbU.insStk(.stk=new%06d, .date=1/2/86, .price=10)", i))
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			execB(b, e, fmt.Sprintf("?.dbU.delStk(.stk=new%06d, .date=1/2/86)", i))
		}
	})
	b.Run("direct-insert-euter-only", func(b *testing.B) {
		e := newEngine()
		for i := 0; i < b.N; i++ {
			execB(b, e, fmt.Sprintf("?.euter.r+(.stkCode=new%06d, .date=1/2/86, .clsPrice=%d)", i, 10+i%100))
		}
	})
}

// --- B7: Figure 1 round trip end to end ---

func BenchmarkRoundTrip(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("stocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, ds := engineFor(b, stocks.Config{Stocks: n, Days: 10, Seed: 29}, core.DefaultOptions())
				for _, r := range append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...) {
					addRuleB(b, e, r)
				}
				eff, err := e.EffectiveUniverse()
				if err != nil {
					b.Fatal(err)
				}
				// Verify fidelity: dbE.r must equal euter.r.
				base, _ := e.Base().Get("euter")
				baseR, _ := base.(*object.Tuple).Get("r")
				dbE, _ := eff.Get("dbE")
				viewR, _ := dbE.(*object.Tuple).Get("r")
				if !baseR.Equal(viewR) {
					b.Fatal("round trip broke fidelity")
				}
				_ = ds
			}
		})
	}
}

// --- B8: ablations — attribute index and conjunct scheduling ---

func BenchmarkAblation(b *testing.B) {
	cfg := stocks.Config{Stocks: 64, Days: 60, Seed: 31}
	point := "?.euter.r(.stkCode=stk033, .date=D, .clsPrice=P)"
	// A safe left-to-right ordering (binder before negation) so both
	// scheduler settings can run it.
	neg := "?.euter.r(.stkCode=stk033,.clsPrice=P,.date=D), .euter.r~(.stkCode=stk033, .clsPrice>P)"
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.DefaultOptions()},
		{"no-index", func() core.Options { o := core.DefaultOptions(); o.UseIndex = false; return o }()},
		{"no-schedule", func() core.Options { o := core.DefaultOptions(); o.NoSchedule = true; return o }()},
	} {
		e, _ := engineFor(b, cfg, tc.opts)
		pq := parseQ(b, point)
		nq := parseQ(b, neg)
		b.Run("point/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, pq)
			}
		})
		b.Run("negation/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, nq)
			}
		})
	}
}

// --- helpers ---

func addRuleB(b *testing.B, e *core.Engine, src string) {
	b.Helper()
	rule, err := parser.ParseRule(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AddRule(rule); err != nil {
		b.Fatal(err)
	}
}

func execB(b *testing.B, e *core.Engine, src string) {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Execute(q); err != nil {
		b.Fatal(err)
	}
}

// --- B9: view maintenance by delta vs from scratch after additive updates ---

func BenchmarkViewMaintenance(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "delta"
		if full {
			name = "full"
		}
		e, _ := engineFor(b, stocks.Config{Stocks: 32, Days: 30, Seed: 37}, core.DefaultOptions())
		addRuleB(b, e, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
		addRuleB(b, e, ".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)")
		q := parseQ(b, "?.dbI.p(.stk=stk001)")
		runQuery(b, e, q) // initial materialization outside the timer
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				execB(b, e, fmt.Sprintf("?.euter.r+(.date=1/2/86, .stkCode=inc%06d, .clsPrice=%d)", i, i%100))
				if full {
					e.Invalidate() // no delta: the refresh recomputes from scratch
				}
				runQuery(b, e, q) // forces view refresh
			}
		})
	}
}

// --- B10: MSQL broadcast vs its IDL translation ---

func BenchmarkMSQLvsIDL(b *testing.B) {
	u, ds := stocks.Universe(stocks.Config{Stocks: 32, Days: 30, Seed: 41})
	e := core.NewEngineWithOptions(core.DefaultOptions())
	u.Each(func(db string, v object.Object) bool {
		e.Base().Put(db, v)
		return true
	})
	e.Invalidate()
	threshold := ds.MaxPrice() * 3 / 4
	src := fmt.Sprintf("SELECT &D, r.stkCode FROM &D.r WHERE r.clsPrice > %d", threshold)
	st, err := msql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("msql-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := msql.Exec(st, u); err != nil {
				b.Fatal(err)
			}
		}
	})
	q, _, err := msql.Translate(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("idl-translated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
}

// --- B11: context plumbing overhead ---

// BenchmarkCtxPlumbing measures what threading a context through the
// evaluator costs. Query (no context) and QueryCtx with a cancellable
// context run the same plans; the amortized cancellation check (one
// atomic-free poll every 1024 evaluator ops) should keep the cancellable
// path within a few percent of the bare one.
func BenchmarkCtxPlumbing(b *testing.B) {
	cfg := stocks.Config{Stocks: 32, Days: 30, Seed: 7}
	e, ds := engineFor(b, cfg, core.DefaultOptions())
	threshold := ds.MaxPrice() * 3 / 4
	qs := map[string]*ast.Query{
		"anyAbove":      parseQ(b, stocks.QueryAnyAbove(threshold)["euter"]),
		"highestPerDay": parseQ(b, stocks.QueryHighestPerDay()["euter"]),
	}
	for name, q := range qs {
		b.Run(name+"/bare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
		b.Run(name+"/ctx", func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < b.N; i++ {
				if _, err := e.QueryCtx(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B12: observability overhead ---

// BenchmarkObservability measures what the observability layer costs in
// each state. "off" is the production default: nil registry and tracer,
// so every instrumented path reduces to one pointer test — it should be
// within noise of the pre-observability engine (compare B11's bare
// numbers). "metrics" adds the registry (a handful of atomic adds and
// one histogram observe per operation). "traced" adds span construction
// and per-conjunct probes, the bound CI enforces via idlbench.
func BenchmarkObservability(b *testing.B) {
	cfg := stocks.Config{Stocks: 16, Days: 20, Seed: 43}
	q := parseQ(b, stocks.QueryHighestPerDay()["euter"])
	newEngine := func() *core.Engine {
		e, _ := engineFor(b, cfg, core.DefaultOptions())
		return e
	}
	b.Run("off", func(b *testing.B) {
		e := newEngine()
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		e := newEngine()
		e.SetMetrics(obs.NewRegistry())
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
	b.Run("traced", func(b *testing.B) {
		e := newEngine()
		e.SetMetrics(obs.NewRegistry())
		e.SetTracer(obs.NewTracer(4))
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
	// The flight recorder hooks in at the DB layer (events wrap whole
	// statements), so its overhead is measured there: recorder off vs
	// the default ring, tracing and metrics off either way.
	src := stocks.QueryHighestPerDay()["euter"]
	newDB := func(ring int) *idl.DB {
		db := idl.Open()
		stocks.Generate(cfg).Populate(db.Engine().Base())
		db.Engine().Invalidate()
		db.SetFlightRecorderSize(ring)
		return db
	}
	for _, tc := range []struct {
		name string
		ring int
	}{{"flightrec-off", 0}, {"flightrec-on", 256}} {
		b.Run(tc.name, func(b *testing.B) {
			db := newDB(tc.ring)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B13: parallel evaluation speedup ---

// BenchmarkParallelQuery partitions a large negated self-join scan
// across the worker pool. Answers are byte-identical to sequential at
// every worker count (the differential layer enforces this); the
// speedup tracks GOMAXPROCS, so on a single-CPU machine the curve is
// flat — run on a multi-core box to see the scan family scale.
func BenchmarkParallelQuery(b *testing.B) {
	src := "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"
	for _, w := range []int{1, 2, 4, 8} {
		opts := core.DefaultOptions()
		opts.Workers = w
		e, _ := engineFor(b, stocks.Config{Stocks: 48, Days: 40, Seed: 47}, opts)
		q := parseQ(b, src)
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
	}
}

// BenchmarkParallelSync refreshes three slow federated members (every
// source operation stalls 2ms) per sync. Concurrent fetches overlap the
// stalls, so this family's speedup is latency-bound and shows up even
// with one CPU — it is the family idlbench -validate holds to a 1.5×
// floor at four workers.
func BenchmarkParallelSync(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		db := idl.Open()
		db.SetWorkers(w)
		for i, name := range []string{"alpha", "beta", "gamma"} {
			member := idl.Tup("r", idl.SetOf(
				idl.Tup("date", idl.Date(85, 3, 3), "stkCode", fmt.Sprintf("stk%d", i), "clsPrice", 100+i),
			))
			src := federation.Inject(federation.NewMemorySource(name, member), federation.InjectorConfig{
				SlowRate: 1,
				Latency:  2 * time.Millisecond,
			})
			if err := db.Mount(name, src); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Sync(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
