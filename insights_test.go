package idl

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Query-insights facade tests: statement digests keyed by AST
// fingerprint, per-operation resource accounting, adaptive slow-query
// capture, and the exemplar ↔ journal ↔ trace correlation.

func TestInsightsDisabledByDefault(t *testing.T) {
	db := Open()
	if db.InsightsEnabled() {
		t.Fatal("insights should be off by default")
	}
	if _, err := db.Statements(); err == nil || !strings.Contains(err.Error(), "insights are not enabled") {
		t.Fatalf("Statements without a store = %v", err)
	}
	if _, err := db.TopStatements(3, "calls"); err == nil {
		t.Fatal("TopStatements without a store should fail")
	}
	if _, _, err := db.Statement("0000000000000001"); err == nil {
		t.Fatal("Statement without a store should fail")
	}
	db.ResetStatements() // must not panic
	if db.StatementsDropped() != 0 {
		t.Fatal("dropped counter without a store")
	}
}

func TestStatementDigestAccumulation(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.EnableInsights(InsightsConfig{})
	if !db.InsightsEnabled() {
		t.Fatal("InsightsEnabled after enable")
	}

	const q = "?.euter.r(.stkCode=S, .clsPrice>100)"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("+.euter.r(.date=3/9/85, .stkCode=tandem, .clsPrice=19)"); err != nil {
		t.Fatal(err)
	}

	digests, err := db.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 2 {
		t.Fatalf("digests = %d, want 2 (one query shape, one exec shape): %+v", len(digests), digests)
	}
	var qd, ed *StatementDigest
	for i := range digests {
		switch digests[i].Kind {
		case "query":
			qd = &digests[i]
		case "exec":
			ed = &digests[i]
		}
	}
	if qd == nil || ed == nil {
		t.Fatalf("missing kinds: %+v", digests)
	}
	if qd.Calls != 3 {
		t.Fatalf("query calls = %d", qd.Calls)
	}
	if qd.Text != q {
		t.Fatalf("query text = %q", qd.Text)
	}
	if len(qd.Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q", qd.Fingerprint)
	}
	if qd.Resources.RowsScanned == 0 || qd.Resources.TuplesEmitted == 0 {
		t.Fatalf("query resources not threaded: %+v", qd.Resources)
	}
	// Every query resolves through the plan cache; the outcomes must
	// tally to the call count (first cold, rest hits in the steady state).
	if got := qd.PlanHit + qd.PlanStale + qd.PlanMiss + qd.PlanCold; got != qd.Calls {
		t.Fatalf("plan outcomes %d != calls %d (%+v)", got, qd.Calls, qd)
	}
	if qd.PlanHit == 0 {
		t.Fatalf("repeated query never hit the plan cache: %+v", qd)
	}
	if ed.Calls != 1 || ed.Resources.TuplesEmitted == 0 {
		t.Fatalf("exec digest: %+v", ed)
	}
	if qd.TotalNS <= 0 || qd.MeanNS <= 0 || qd.WindowCount != 3 {
		t.Fatalf("latency accounting: %+v", qd)
	}

	// Point lookup round-trips through the hex fingerprint.
	d, _, err := db.Statement(qd.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if d.Calls != 3 || d.Text != q {
		t.Fatalf("Statement(%s) = %+v", qd.Fingerprint, d)
	}
	if _, _, err := db.Statement("ffffffffffffffff"); err == nil {
		t.Fatal("unknown fingerprint should fail")
	}

	// Top orderings at the facade.
	top, err := db.TopStatements(1, "calls")
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Fingerprint != qd.Fingerprint {
		t.Fatalf("TopStatements(calls) = %+v", top)
	}
	if _, err := db.TopStatements(1, "nope"); err == nil {
		t.Fatal("unknown ordering should fail")
	}

	db.ResetStatements()
	if ds, _ := db.Statements(); len(ds) != 0 {
		t.Fatalf("digests after reset: %+v", ds)
	}
}

func TestCallDigestPerProgram(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefinePrograms(".dbU.delStk(.stk=S) -> .euter.r-(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	db.EnableInsights(InsightsConfig{})
	// Different parameters, one program: one digest.
	for _, stk := range []string{"hp", "ibm"} {
		if _, err := db.Call("dbU", "delStk", map[string]any{"S": stk}); err != nil {
			t.Fatal(err)
		}
	}
	digests, err := db.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 {
		t.Fatalf("digests = %+v, want one call shape", digests)
	}
	d := digests[0]
	if d.Kind != "call" || d.Calls != 2 {
		t.Fatalf("call digest: %+v", d)
	}
	if !strings.Contains(d.Text, "dbU.delStk") {
		t.Fatalf("call text: %q", d.Text)
	}
	if d.Resources.TuplesEmitted == 0 {
		t.Fatalf("call resources not threaded: %+v", d.Resources)
	}
}

// TestSlowQueryExemplarJoinsJournal is the acceptance correlation: a
// query crossing the slow threshold captures an exemplar whose trace ID
// matches (a) the retained span tree and (b) the workload journal's
// record for that query.
func TestSlowQueryExemplarJoinsJournal(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	path := filepath.Join(t.TempDir(), "w.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(8)
	// 1ns absolute threshold: every observation is "slow".
	db.EnableInsights(InsightsConfig{SlowThreshold: time.Nanosecond})

	const q = "?.euter.r(.stkCode=S, .clsPrice=62)"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}

	digests, err := db.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 {
		t.Fatalf("digests = %+v", digests)
	}
	_, exemplars, err := db.Statement(digests[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(exemplars) != 1 {
		t.Fatalf("exemplars = %+v", exemplars)
	}
	ex := exemplars[0]
	if ex.TraceID == "" || ex.DurationNS <= 0 {
		t.Fatalf("exemplar: %+v", ex)
	}
	// (a) The captured span tree is this query's: its root carries the
	// same facade-minted trace ID.
	if ex.Trace == nil {
		t.Fatal("exemplar captured no span tree despite tracing on")
	}
	if got := attrStr(ex.Trace, "trace"); got != ex.TraceID {
		t.Fatalf("span trace = %q, exemplar trace = %q", got, ex.TraceID)
	}
	if len(ex.Events) == 0 {
		t.Fatal("exemplar carries no flight-recorder excerpt")
	}
	// The excerpt's slice is its own: an exemplar keeps only its tail of
	// the ring alive, not a whole snapshot of it.
	if cap(ex.Events) > exemplarEventTail {
		t.Fatalf("excerpt cap = %d, want <= %d", cap(ex.Events), exemplarEventTail)
	}

	// (b) The journal record for the query carries the same trace ID.
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.TraceID == ex.TraceID {
			if r.Kind != EventQuery || r.Text != q {
				t.Fatalf("journal record for trace %s = %+v", ex.TraceID, r)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no journal record with trace %s in %+v", ex.TraceID, recs)
	}
}

func TestExecWALBytesAccounted(t *testing.T) {
	db, _, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EnableInsights(InsightsConfig{})
	if _, err := db.Exec("+.euter.r(.date=3/9/85, .stkCode=tandem, .clsPrice=19)"); err != nil {
		t.Fatal(err)
	}
	digests, err := db.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 || digests[0].Resources.WALBytes == 0 {
		t.Fatalf("WAL bytes not accounted: %+v", digests)
	}
}

// TestResetMetricsClearsWindowedState pins the PR 7 reset semantics:
// ResetMetrics zeroes rolling windows and SLO trackers, not just the
// cumulative instruments.
func TestResetMetricsClearsWindowedState(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	reg := db.Metrics()
	if err := db.SetSLO("engine.query", time.Second, 0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice=62)"); err != nil {
		t.Fatal(err)
	}
	if ws, ok := reg.WindowValue("engine.query.latency"); !ok || ws.Count == 0 {
		t.Fatalf("precondition: window empty (ok=%v count=%d)", ok, ws.Count)
	}
	db.ResetMetrics()
	if ws, ok := reg.WindowValue("engine.query.latency"); ok && ws.Count != 0 {
		t.Fatalf("window survived ResetMetrics: count=%d", ws.Count)
	}
	for _, s := range reg.SLOStatuses() {
		if s.Total != 0 || s.Bad != 0 {
			t.Fatalf("SLO window survived ResetMetrics: %+v", s)
		}
	}
}

// TestTraceRetention pins the bounded trace ring: evictions count under
// traces.dropped, and the export envelope reports the drop count.
func TestTraceRetention(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.Metrics() // attach first so EnableTracing wires the drop counter
	db.EnableTracing(2)
	if got := db.TraceRetention(); got != 2 {
		t.Fatalf("TraceRetention = %d", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice=62)"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.TracesDropped(); got != 3 {
		t.Fatalf("TracesDropped = %d, want 3", got)
	}
	if got := db.Metrics().CounterValue("traces.dropped"); got != 3 {
		t.Fatalf("traces.dropped counter = %d, want 3", got)
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("retained traces = %d", len(traces))
	}
	var buf bytes.Buffer
	if err := db.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped": 3`) {
		t.Fatalf("export envelope missing drop count: %s", buf.String())
	}
}
