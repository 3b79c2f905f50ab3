package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(benches map[string]int64) *Report {
	rep := &Report{
		Schema:         reportSchema,
		GoVersion:      "go-test",
		TraceOverhead:  TraceOverhead{OffNsPerOp: 100, MetricsNsPerOp: 105, TracedNsPerOp: 150, TracedRatio: 1.5},
		FlightOverhead: FlightOverhead{OffNsPerOp: 100, OnNsPerOp: 104, Ratio: 1.04},
		Parallel:       ParallelSpeedup{NumCPU: 1, GoMaxProcs: 1, QuerySpeedup4: 1.0, SyncSpeedup4: 2.8},
		PlanCache: PlanCacheSummary{
			InterpretedNsPerOp: 150, CompileNsPerOp: 160, CachedNsPerOp: 100,
			PreparedNsPerOp: 95, HitRate: 0.99, Speedup: 1.5,
		},
		WAL: WALSummary{
			QueryOffNsPerOp: 100, QueryOnNsPerOp: 102, QueryRatio: 1.02,
			ExecOffNsPerOp: 200, ExecSyncNsPerOp: 900, ExecGroupNsPerOp: 400,
			GroupAmortization: 2.25,
		},
		Telemetry: TelemetrySummary{
			OffNsPerOp: 100, MetricsNsPerOp: 101, WindowedNsPerOp: 102,
			TracedNsPerOp: 150, WindowedRatio: 1.02,
		},
		Insights: InsightsSummary{
			OffNsPerOp: 100, DigestsNsPerOp: 102, CaptureNsPerOp: 130,
			DigestsRatio: 1.02,
		},
		MVCC: MVCCSummary{
			NumCPU: 1, GoMaxProcs: 1, ReaderSpeedup4: 1.0,
			SerialCommitReads: 0, MVCCCommitReads: 5000, ReadScaling: 5000,
			CkptWroteBytes: 500, CkptTotalBytes: 10000, CkptRatio: 0.05,
		},
	}
	for name, ns := range benches {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Iters: 10, NsPerOp: ns})
	}
	return rep
}

func TestCompareReports(t *testing.T) {
	oldRep := report(map[string]int64{"B1": 100, "B2": 200, "B3": 50})
	newRep := report(map[string]int64{"B1": 110, "B2": 290, "B4": 70})
	lines, regressions := compareReports(oldRep, newRep, 0.25)
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want B2 (+45%%) and B3 (missing)", regressions)
	}
	got := strings.Join(regressions, ",")
	if !strings.Contains(got, "B2") || !strings.Contains(got, "B3") {
		t.Errorf("regressions = %v", regressions)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"REGRESSION", "MISSING from new report", "new benchmark"} {
		if !strings.Contains(joined, want) {
			t.Errorf("delta table missing %q:\n%s", want, joined)
		}
	}
	if _, regressions := compareReports(oldRep, oldRep, 0.25); len(regressions) != 0 {
		t.Errorf("self-compare should be clean, got %v", regressions)
	}
}

func writeReport(t *testing.T, rep *Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	oldPath := writeReport(t, report(map[string]int64{"B1": 100}))
	newPath := writeReport(t, report(map[string]int64{"B1": 300}))
	if err := compareFiles(os.Stdout, oldPath, oldPath, 0.25); err != nil {
		t.Errorf("identical reports should pass: %v", err)
	}
	err := compareFiles(os.Stdout, oldPath, newPath, 0.25)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("3x slowdown should fail the gate, got %v", err)
	}
}

func TestValidateReport(t *testing.T) {
	good := writeReport(t, report(map[string]int64{"B1": 100}))
	if err := validateReport(good, 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err != nil {
		t.Errorf("well-formed report should validate: %v", err)
	}
	if err := validateReport(good, 3.0, 1.01, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("flight overhead 1.04 should exceed a 1.01 bound")
	}
	noFlight := report(map[string]int64{"B1": 100})
	noFlight.FlightOverhead = FlightOverhead{}
	if err := validateReport(writeReport(t, noFlight), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing flight overhead should fail validation")
	}
	stale := report(map[string]int64{"B1": 100})
	stale.Schema = 1
	if err := validateReport(writeReport(t, stale), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("stale schema should fail validation")
	}
	slow := report(map[string]int64{"B1": 100})
	slow.Parallel.SyncSpeedup4 = 1.2
	if err := validateReport(writeReport(t, slow), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("sync speedup 1.2 should miss a 1.5 floor")
	}
	unmeasured := report(map[string]int64{"B1": 100})
	unmeasured.Parallel = ParallelSpeedup{}
	if err := validateReport(writeReport(t, unmeasured), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing parallel speedup should fail validation")
	}
	coldCache := report(map[string]int64{"B1": 100})
	coldCache.PlanCache.HitRate = 0.5
	if err := validateReport(writeReport(t, coldCache), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("hit rate 0.5 should miss a 0.95 floor")
	}
	slowPlan := report(map[string]int64{"B1": 100})
	slowPlan.PlanCache.Speedup = 1.05
	if err := validateReport(writeReport(t, slowPlan), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("plan-cache speedup 1.05 should miss a 1.15 floor")
	}
	noPlan := report(map[string]int64{"B1": 100})
	noPlan.PlanCache = PlanCacheSummary{}
	if err := validateReport(writeReport(t, noPlan), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing plan-cache section should fail validation")
	}
	taxed := report(map[string]int64{"B1": 100})
	taxed.WAL.QueryRatio = 1.4
	if err := validateReport(writeReport(t, taxed), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("WAL query ratio 1.4 should exceed a 1.15 bound")
	}
	noAmort := report(map[string]int64{"B1": 100})
	noAmort.WAL.GroupAmortization = 0.8
	if err := validateReport(writeReport(t, noAmort), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("group amortization 0.8 should miss a 1.0 floor")
	}
	noWAL := report(map[string]int64{"B1": 100})
	noWAL.WAL = WALSummary{}
	if err := validateReport(writeReport(t, noWAL), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing WAL section should fail validation")
	}
	taxedIns := report(map[string]int64{"B1": 100})
	taxedIns.Insights.DigestsRatio = 1.2
	if err := validateReport(writeReport(t, taxedIns), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("insights digests ratio 1.2 should exceed a 1.03 bound")
	}
	noIns := report(map[string]int64{"B1": 100})
	noIns.Insights = InsightsSummary{}
	if err := validateReport(writeReport(t, noIns), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing insights section should fail validation")
	}
	blocked := report(map[string]int64{"B1": 100})
	blocked.MVCC.ReadScaling = 1.1
	if err := validateReport(writeReport(t, blocked), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("read scaling 1.1 should miss a 2.5 floor")
	}
	noMVCC := report(map[string]int64{"B1": 100})
	noMVCC.MVCC = MVCCSummary{}
	if err := validateReport(writeReport(t, noMVCC), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("missing MVCC section should fail validation")
	}
	fatCkpt := report(map[string]int64{"B1": 100})
	fatCkpt.MVCC.CkptRatio = 0.9
	if err := validateReport(writeReport(t, fatCkpt), 3.0, 1.25, 1.5, 0.95, 1.15, 1.15, 1.0, 1.03, 1.03, 2.5, 0.25); err == nil {
		t.Error("checkpoint ratio 0.9 should exceed a 0.25 bound")
	}
}

func TestValidateAllocs(t *testing.T) {
	bench := func(name string, allocs, scanned uint64) *Report {
		rep := report(nil)
		rep.Benchmarks = []Benchmark{{Name: name, Iters: 10, NsPerOp: 100, AllocsPerOp: allocs,
			Counters: map[string]uint64{"elements_scanned": scanned}}}
		return rep
	}
	for _, tc := range []struct {
		name            string
		allocs, scanned uint64
		ok              bool
	}{
		{"B1/anyAbove/euter", 188, 240, true},  // 128 + 0.25×240 = 188
		{"B1/anyAbove/euter", 414, 240, false}, // the pre-slot evaluator: 1.7 per element
		{"B3/negation/indexed", 128, 0, true},  // probes scan nothing: the allowance alone
		{"B3/negation/indexed", 129, 0, false},
		{"B8/point/no-index", 4048, 3840, false}, // a closure and a mask per element
		{"B4/materialize/seminaive", 15000, 1620, true},
		{"B4/materialize/naive", 15001, 2900, false},
		{"B13/query/w4", 400, 1920, true},
		{"B13/query/w1", 20180, 1920, false},
		{"B13/sync/w4", 99999, 0, true}, // not an evaluator family
		{"B2/crossJoin", 99999, 30, true},
	} {
		err := validateAllocs(bench(tc.name, tc.allocs, tc.scanned))
		if (err == nil) != tc.ok {
			t.Errorf("%s at %d allocs/op over %d elements: err = %v, want ok=%v", tc.name, tc.allocs, tc.scanned, err, tc.ok)
		}
	}
}

// TestRunAllShort smoke-runs the full pipeline in -short mode: every
// benchmark measured, both overhead sections populated.
func TestRunAllShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runAll is itself the benchmark runner")
	}
	rep := runAll(true)
	path := writeReport(t, rep)
	// The timing bounds are slack here; the allocation ceilings are not —
	// counts do not depend on the machine, so they hold on every run.
	if err := validateReport(path, 25, 25, 0.1, 0, 0, 25, 0, 25, 25, 0, 25); err != nil {
		t.Fatalf("generated report should validate: %v", err)
	}
	if rep.FlightOverhead.Ratio <= 0 {
		t.Error("flight overhead not measured")
	}
	if rep.Parallel.SyncSpeedup4 <= 0 || rep.Parallel.QuerySpeedup4 <= 0 {
		t.Error("parallel speedup not measured")
	}
	if rep.PlanCache.HitRate <= 0 || rep.PlanCache.Speedup <= 0 {
		t.Error("plan-cache family not measured")
	}
	if rep.WAL.QueryRatio <= 0 || rep.WAL.GroupAmortization <= 0 {
		t.Error("WAL families not measured")
	}
	if rep.Telemetry.WindowedRatio <= 0 {
		t.Error("telemetry families not measured")
	}
	if rep.Insights.DigestsRatio <= 0 {
		t.Error("insights families not measured")
	}
	if rep.MVCC.MVCCCommitReads == 0 || rep.MVCC.ReadScaling <= 0 {
		t.Error("MVCC mixed family not measured")
	}
	if rep.MVCC.CkptRatio <= 0 || rep.MVCC.CkptRatio > 1 {
		t.Errorf("incremental checkpoint ratio %v outside (0, 1]", rep.MVCC.CkptRatio)
	}
}
