package idl

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"idl/internal/stocks"
)

// The statement clock (DESIGN.md §20): the facade's op reads the clock
// once at each end of a statement, and that one reading feeds the
// record, the digest and the kind's counters, histogram, window and SLO.

// TestOneClockFeedsEverySink: after one logged, digested query, the
// event's duration, the digest's total and the engine.query window's
// maximum are one value.
func TestOneClockFeedsEverySink(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	reg := db.Metrics()
	db.EnableInsights(InsightsConfig{})
	db.SetEventLog(io.Discard)
	if _, err := db.Query("?.euter.r(.stkCode=hp, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for _, e := range db.Events() {
		if e.Kind == "query" {
			ev = e
		}
	}
	if ev == nil || ev.Duration <= 0 {
		t.Fatalf("query event = %+v, want one with a duration", ev)
	}
	digests, err := db.Statements()
	if err != nil || len(digests) != 1 {
		t.Fatalf("digests = %+v, %v; want one", digests, err)
	}
	ws, ok := reg.WindowValue("engine.query.latency")
	if !ok || ws.Count != 1 {
		t.Fatalf("engine.query window = %+v, %v; want one observation", ws, ok)
	}
	if got := time.Duration(digests[0].TotalNS); got != ev.Duration || ws.Max != ev.Duration {
		t.Fatalf("event %v, digest total %v, window max %v: want one duration", ev.Duration, got, ws.Max)
	}
	if h := reg.Histogram("engine.query.latency"); h.Count() != 1 || h.Max() != ev.Duration {
		t.Fatalf("engine.query histogram count %d max %v, want 1 and %v", h.Count(), h.Max(), ev.Duration)
	}
}

// checkKindCounts requires every instrument of each statement kind to
// have seen exactly want[kind] statements, and Health to report only the
// facade's engine.* ops.
func checkKindCounts(t *testing.T, db *DB, want map[string]uint64) {
	t.Helper()
	reg := db.Metrics()
	slos := map[string]uint64{}
	for _, s := range reg.SLOStatuses() {
		slos[s.Name] = s.Total
	}
	for kind, n := range want {
		name := "engine." + kind
		ws, _ := reg.WindowValue(name + ".latency")
		got := []uint64{reg.CounterValue(name + ".count"), reg.Histogram(name + ".latency").Count(), ws.Count, slos[name]}
		for i, g := range got {
			if g != n {
				t.Errorf("%s: count/histogram/window/SLO = %v, want %d each (entry %d)", name, got, n, i)
				break
			}
		}
	}
	h, err := db.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Ops) != 3 {
		t.Errorf("health ops = %+v, want the three statement kinds", h.Ops)
	}
	for _, op := range h.Ops {
		if !strings.HasPrefix(op.Name, "engine.") {
			t.Errorf("health op %q: only the facade's engine.* ops time statements", op.Name)
		}
	}
	for _, s := range h.SLOs {
		if !strings.HasPrefix(s.Name, "engine.") {
			t.Errorf("health SLO %q: only the facade's engine.* ops time statements", s.Name)
		}
	}
}

// TestStatementKindsCountedOnce sends N queries (ad hoc and prepared),
// M update requests and K program calls through the embedded DB: every
// instrument of a kind counts each of its statements once.
func TestStatementKindsCountedOnce(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.Metrics()
	db.EnableInsights(InsightsConfig{})
	if err := db.DefinePrograms(stocks.ProgramInsStk...); err != nil {
		t.Fatal(err)
	}
	const n, m, k = 5, 3, 2
	p, err := db.Prepare("?.euter.r(.stkCode=S, .clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var err error
		if i%2 == 0 {
			_, err = db.Query("?.ource.hp(.clsPrice=P)")
		} else {
			_, err = p.Query()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		if _, err := db.Exec("?.euter.r+(.date=3/9/85, .stkCode=dec, .clsPrice=77)"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if _, err := db.Call("dbU", "insStk", map[string]any{"S": "zz", "D": Date(85, 3, 9), "P": i}); err != nil {
			t.Fatal(err)
		}
	}
	checkKindCounts(t, db, map[string]uint64{"query": n, "exec": m, "call": k})
}

// TestExplainAnalyzeIsNotAStatement: EXPLAIN ANALYZE evaluates the query
// measured, but it is not a statement op, so no statement instrument
// counts it.
func TestExplainAnalyzeIsNotAStatement(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	reg := db.Metrics()
	if _, err := db.Query("?.euter.r(.stkCode=hp, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	before := reg.CounterValue("engine.query.count")
	if _, _, err := db.ExplainAnalyzeCtx(context.Background(), "?.euter.r(.stkCode=hp, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("engine.query.count"); got != before || before != 1 {
		t.Fatalf("engine.query.count = %d after EXPLAIN ANALYZE, was %d; want 1 both times", got, before)
	}
}
