package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idl/internal/core"
)

func report(benches map[string]int64) *Report {
	rep := &Report{
		Schema:    reportSchema,
		GoVersion: "go-test",
		Parallel:  ParallelSpeedup{NumCPU: 1, GoMaxProcs: 1, QuerySpeedup4: 1.0, SyncSpeedup4: 2.8},
		PlanCache: PlanCacheSummary{
			CompileNsPerOp: 160, CachedNsPerOp: 100,
			HitRate: 0.99, Speedup: 1.6, ResidentPlans: 1,
		},
		WAL: WALSummary{
			ExecOffNsPerOp: 200, ExecSyncNsPerOp: 900, ExecGroupNsPerOp: 400,
			GroupAmortization: 2.25,
		},
		MVCC: MVCCSummary{
			NumCPU: 1, GoMaxProcs: 1, ReaderSpeedup4: 1.0, MVCCCommitReads: 5000,
			CkptWroteBytes: 500, CkptTotalBytes: 10000, CkptRatio: 0.05,
		},
	}
	for _, a := range overheadArms {
		rep.Overhead = append(rep.Overhead, OverheadArm{
			Arm: a.name, NsPerOp: 100, AllocsPerOp: 90 + uint64(a.maxDelta),
			Ratio: 1, AllocDelta: a.maxDelta,
		})
	}
	for name, ns := range benches {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Iters: 10, NsPerOp: ns, AllocsPerOp: uint64(ns)})
	}
	// B8's probes close the list: the one-key baseline, then two keys,
	// each building no index per op.
	for _, b := range []struct {
		name  string
		cands uint64
	}{{"B8/point/baseline", 60}, {"B8/point/two-keys", 1}} {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: b.name, Iters: 10, NsPerOp: 100, AllocsPerOp: 40,
			Counters: map[string]uint64{"index_candidates": b.cands, "index_builds": 0}})
	}
	return rep
}

func TestCompareReports(t *testing.T) {
	oldRep := report(map[string]int64{"B1": 100, "B2": 200, "B3": 50})
	newRep := report(map[string]int64{"B1": 110, "B2": 290, "B4": 70})
	newRep.Overhead[1].AllocsPerOp *= 2 // flightrec allocates twice as much
	lines, err := compareReports(oldRep, newRep)
	if err == nil {
		t.Fatal("B2 (+45%), B3 (missing) and overhead/flightrec (+100%) should fail the gate")
	}
	for _, want := range []string{"3 benchmark(s)", "B2", "B3", "overhead/flightrec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"REGRESSION", "MISSING from new report", "new benchmark"} {
		if !strings.Contains(joined, want) {
			t.Errorf("delta table missing %q:\n%s", want, joined)
		}
	}
	if _, err := compareReports(oldRep, oldRep); err != nil {
		t.Errorf("self-compare should be clean, got %v", err)
	}
	// The gate is allocs/op: time alone never fails it, allocations do.
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
		fail   bool
	}{
		{"ns/op tripled", func(r *Report) { r.Benchmarks[0].NsPerOp *= 3 }, false},
		{"overhead ns/op tripled", func(r *Report) { r.Overhead[3].NsPerOp *= 3 }, false},
		{"allocs/op +20%", func(r *Report) { r.Benchmarks[0].AllocsPerOp = 120 }, false},
		{"allocs/op +21%", func(r *Report) { r.Benchmarks[0].AllocsPerOp = 121 }, true},
		{"overhead allocs/op grew", func(r *Report) { r.Overhead[2].AllocsPerOp += 20 }, true},
	} {
		base, changed := report(map[string]int64{"B1": 100}), report(map[string]int64{"B1": 100})
		tc.mutate(changed)
		if _, err := compareReports(base, changed); (err != nil) != tc.fail {
			t.Errorf("%s: compare err = %v, want failure %v", tc.name, err, tc.fail)
		}
	}
	// Across a schema change the names no longer mean the same thing:
	// one line naming both schemas, no per-benchmark table.
	stale := report(map[string]int64{"B1": 100, "B11/obs/off": 90})
	stale.Schema = reportSchema - 1
	lines, err = compareReports(stale, oldRep)
	want := fmt.Sprintf("schema %d vs %d: re-baseline", reportSchema-1, reportSchema)
	if err == nil || err.Error() != want || len(lines) != 0 {
		t.Errorf("schema change: lines=%q err=%v, want no lines and %q", lines, err, want)
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
	if err := compareFiles(os.Stdout, oldPath, oldPath); err != nil {
		t.Errorf("identical reports should pass: %v", err)
	}
	err := compareFiles(os.Stdout, oldPath, newPath)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("3x slowdown should fail the gate, got %v", err)
	}
}

// TestValidateReport mutates one field of a good report per gate. Count
// gates must fail validateReport (the check TestRunAllShort applies to a
// live run); the two time floors must pass it and fail validateFloors.
func TestValidateReport(t *testing.T) {
	good := report(map[string]int64{"B1": 100})
	if err := validateReport(good); err != nil {
		t.Fatalf("well-formed report should validate: %v", err)
	}
	if err := validateFloors(good); err != nil {
		t.Fatalf("well-formed report should clear the floors: %v", err)
	}
	if err := validateFile(writeReport(t, good)); err != nil {
		t.Fatalf("well-formed report file should validate: %v", err)
	}
	for _, tc := range []struct {
		name   string
		floor  bool // caught by validateFloors, not validateReport
		mutate func(*Report)
	}{
		{"stale schema", false, func(r *Report) { r.Schema = 1 }},
		{"no benchmarks", false, func(r *Report) { r.Benchmarks = nil }},
		{"unmeasured benchmark", false, func(r *Report) { r.Benchmarks[0].Iters = 0 }},
		{"duplicate benchmark", false, func(r *Report) { r.Benchmarks = append(r.Benchmarks, r.Benchmarks[0]) }},
		{"overhead arm missing", false, func(r *Report) { r.Overhead = r.Overhead[:len(r.Overhead)-1] }},
		{"overhead arm renamed", false, func(r *Report) { r.Overhead[2].Arm = "windowed" }},
		{"overhead arm unmeasured", false, func(r *Report) { r.Overhead[3].NsPerOp = 0 }},
		{"metrics allocates", false, func(r *Report) { r.Overhead[2].AllocDelta = 1 }},
		{"digests over ceiling", false, func(r *Report) { r.Overhead[5].AllocDelta++ }},
		{"parallel unmeasured", false, func(r *Report) { r.Parallel = ParallelSpeedup{} }},
		{"plan cache unmeasured", false, func(r *Report) { r.PlanCache = PlanCacheSummary{} }},
		{"plan cache cold", false, func(r *Report) { r.PlanCache.HitRate = 0.5 }},
		{"plan per literal", false, func(r *Report) { r.PlanCache.ResidentPlans = 24 }},
		{"two-key probe on one key", false, func(r *Report) { r.Benchmarks[len(r.Benchmarks)-1].Counters["index_candidates"] = 60 }},
		{"two-key probe unmeasured", false, func(r *Report) { r.Benchmarks = r.Benchmarks[:len(r.Benchmarks)-1] }},
		{"baseline probe narrowed", false, func(r *Report) { r.Benchmarks[len(r.Benchmarks)-2].Counters["index_candidates"] = 1 }},
		{"read-only op builds an index", false, func(r *Report) { r.Benchmarks[len(r.Benchmarks)-2].Counters["index_builds"] = 1 }},
		{"read-only op reports no builds", false, func(r *Report) { delete(r.Benchmarks[len(r.Benchmarks)-1].Counters, "index_builds") }},
		{"read-only batch builds one index over many ops", false, func(r *Report) {
			r.Benchmarks[len(r.Benchmarks)-1].Counters = perOpCounters(core.Stats{IndexBuilds: 1, IndexCandidates: 8}, 8)
		}},
		{"WAL unmeasured", false, func(r *Report) { r.WAL = WALSummary{} }},
		{"reads blocked during commits", false, func(r *Report) { r.MVCC.MVCCCommitReads = 2 }},
		{"checkpoint unmeasured", false, func(r *Report) { r.MVCC.CkptTotalBytes = 0 }},
		{"checkpoint rewrites too much", false, func(r *Report) { r.MVCC.CkptRatio = 0.9 }},
		{"evaluator allocation ceiling", false, func(r *Report) {
			r.Benchmarks = append(r.Benchmarks, Benchmark{Name: "B4/materialize/seminaive", Iters: 1, NsPerOp: 1, AllocsPerOp: 6001})
		}},
		{"sync speedup", true, func(r *Report) { r.Parallel.SyncSpeedup4 = 1.2 }},
		{"group amortization", true, func(r *Report) { r.WAL.GroupAmortization = 0.8 }},
	} {
		rep := report(map[string]int64{"B1": 100})
		tc.mutate(rep)
		countErr, floorErr := validateReport(rep), validateFloors(rep)
		if tc.floor {
			if countErr != nil || floorErr == nil {
				t.Errorf("%s: validateReport = %v, validateFloors = %v; want only the floor to fail", tc.name, countErr, floorErr)
			}
		} else if countErr == nil {
			t.Errorf("%s: validateReport passed", tc.name)
		}
		if err := validateFile(writeReport(t, rep)); err == nil {
			t.Errorf("%s: -validate passed", tc.name)
		}
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
		{"B4/materialize/seminaive", 6000, 1620, true},
		{"B4/materialize/seminaive", 6001, 2900, false},
		{"B4/materialize/seminaive", 10858, 1620, false}, // per-tuple attribute maps
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

// TestRunAllShort smoke-runs the full pipeline in -short mode and holds
// it to every count gate: counts do not depend on the machine, so the
// same validateReport -validate runs holds here, under -race included.
func TestRunAllShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runAll is itself the benchmark runner")
	}
	rep := runAll(true)
	if err := validateReport(rep); err != nil {
		t.Fatalf("generated report should validate: %v", err)
	}
	// Every overhead arm is priced against the one baseline row.
	base := rep.Overhead[0]
	if base.Arm != "baseline" || base.Ratio != 1 || base.AllocDelta != 0 {
		t.Fatalf("overhead baseline row = %+v", base)
	}
	for _, a := range rep.Overhead {
		if a.Ratio != float64(a.NsPerOp)/float64(base.NsPerOp) ||
			a.AllocDelta != int64(a.AllocsPerOp)-int64(base.AllocsPerOp) {
			t.Errorf("overhead/%s not measured against the baseline: %+v vs %+v", a.Arm, a, base)
		}
	}
	if rep.Parallel.SyncSpeedup4 <= 0 || rep.WAL.GroupAmortization <= 0 {
		t.Error("time-floor families not measured")
	}
	if rep.MVCC.CkptRatio <= 0 || rep.MVCC.CkptRatio > 1 {
		t.Errorf("incremental checkpoint ratio %v outside (0, 1]", rep.MVCC.CkptRatio)
	}
}
