package core

import (
	"fmt"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// benchEngine builds a universe with one euter-style relation of n rows.
func benchEngine(b *testing.B, n int, opts Options) *Engine {
	b.Helper()
	e := NewEngineWithOptions(opts)
	rel := object.NewSet()
	for i := 0; i < n; i++ {
		rel.Add(object.TupleOf(
			"date", object.NewDate(85, 1+i%12, 1+i%28),
			"stkCode", fmt.Sprintf("stk%03d", i%50),
			"clsPrice", 10+i%300,
		))
	}
	d := object.NewTuple()
	d.Put("r", rel)
	e.Base().Put("euter", d)
	e.Invalidate()
	return e
}

func benchQuery(b *testing.B, e *Engine, src string) {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQueryIndexed(b *testing.B) {
	e := benchEngine(b, 10000, DefaultOptions())
	benchQuery(b, e, "?.euter.r(.stkCode=stk025, .clsPrice=P, .date=D)")
}

func BenchmarkPointQueryScan(b *testing.B) {
	opts := DefaultOptions()
	opts.UseIndex = false
	e := benchEngine(b, 10000, opts)
	benchQuery(b, e, "?.euter.r(.stkCode=stk025, .clsPrice=P, .date=D)")
}

func BenchmarkHigherOrderAttrEnumeration(b *testing.B) {
	e := NewEngine()
	rel := object.NewSet()
	row := object.NewTuple()
	row.Put("date", object.NewDate(85, 1, 2))
	for i := 0; i < 200; i++ {
		row.Put(fmt.Sprintf("stk%03d", i), object.Int(i))
	}
	rel.Add(row)
	d := object.NewTuple()
	d.Put("r", rel)
	e.Base().Put("chwab", d)
	e.Invalidate()
	benchQuery(b, e, "?.chwab.r(.S>150)")
}

func BenchmarkNegationQuery(b *testing.B) {
	e := benchEngine(b, 2000, DefaultOptions())
	benchQuery(b, e, "?.euter.r(.stkCode=stk010,.clsPrice=P,.date=D), .euter.r~(.stkCode=stk010, .clsPrice>P)")
}

func BenchmarkInsertThroughput(b *testing.B) {
	e := benchEngine(b, 0, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := parser.ParseQuery(fmt.Sprintf("?.euter.r+(.stkCode=s%07d, .clsPrice=%d)", i, i%100))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeSimpleView(b *testing.B) {
	e := benchEngine(b, 5000, DefaultOptions())
	mustRuleB(b, e, ".v.hot+(.stk=S, .price=P) <- .euter.r(.stkCode=S, .clsPrice=P), .euter.r~(.stkCode=S, .clsPrice>P)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Invalidate()
		if _, err := e.EffectiveUniverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func mustRuleB(b *testing.B, e *Engine, src string) {
	b.Helper()
	r, err := parser.ParseRule(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AddRule(r); err != nil {
		b.Fatal(err)
	}
}

// stockViewEngine builds the paper's three stock layouts at stocks×days
// facts each, with the §6 unified and customised views and the §7
// insStk/delStk programs registered.
func stockViewEngine(tb testing.TB, stockCount, days int, opts Options) *Engine {
	tb.Helper()
	return stockViewEngineOn(tb, stocks.Generate(stocks.Config{Stocks: stockCount, Days: days, Seed: 11}), opts)
}

func stockViewEngineOn(tb testing.TB, ds *stocks.Dataset, opts Options) *Engine {
	tb.Helper()
	e := NewEngineWithOptions(opts)
	ds.Populate(e.Base())
	e.Invalidate()
	for _, r := range append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...) {
		mustRule(tb, e, r)
	}
	for _, c := range append(append([]string{}, stocks.ProgramInsStk...), stocks.ProgramDelStk...) {
		mustClause(tb, e, c)
	}
	return e
}

// BenchmarkRefreshAfterWrite is the write→first-read cycle served.mixed
// pays: one program call (insStk and delStk alternating, so the dataset
// keeps its size) followed by one point read through a view, which
// re-materialises all four views.
func BenchmarkRefreshAfterWrite(b *testing.B) {
	for _, size := range []struct{ stocks, days int }{{8, 15}, {30, 60}} {
		b.Run(fmt.Sprint(size.stocks*size.days), func(b *testing.B) {
			e := stockViewEngine(b, size.stocks, size.days, DefaultOptions())
			read, err := parser.ParseQuery("?.dbE.r(.stkCode=stk001, .date=1/2/85, .clsPrice=P)")
			if err != nil {
				b.Fatal(err)
			}
			ins, err := parser.ParseQuery("?.dbU.insStk(.stk=fresh, .date=1/3/85, .price=7)")
			if err != nil {
				b.Fatal(err)
			}
			del, err := parser.ParseQuery("?.dbU.delStk(.stk=fresh, .date=1/3/85)")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Query(read); err != nil { // first materialisation outside the timer
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write := ins
				if i%2 == 1 {
					write = del
				}
				if _, err := e.Execute(write); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Query(read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
