// Command idlbench is the repository's benchmark snapshot pipeline: it
// runs the B1–B9, B13–B15 and B18 engine benchmarks and the observer
// overhead matrix (see DESIGN.md §5, §8, §10–§15, §17) against the
// deterministic internal/stocks workload and writes a machine-readable
// BENCH_report.json — per-benchmark ns/op, allocs/op, and the engine's
// evaluator counters — so performance can be compared across commits
// without parsing `go test -bench` text.
//
// Usage:
//
//	idlbench [-short] [-out BENCH_report.json]   run and write a report
//	idlbench -validate BENCH_report.json         check an existing report
//	idlbench -compare old.json new.json          regression-gate two reports
//
// The gates are constants, not flags (see the gate block below): counts
// and byte ratios, which repeat run to run, plus two time floors that
// sleeps and fsync bound rather than CPU. Overhead ratios are reported,
// not gated.
//
// The workload is seeded, so the report's structure — benchmark names,
// iteration floors, engine counters, allocation counts — is identical run
// to run; only the timing fields vary with the machine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idl"
	"idl/internal/ast"
	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// reportSchema versions the report layout for downstream tooling.
// Schema 2 added FlightOverhead; schema 3 added Parallel (B13); schema 4
// added PlanCache (B14); schema 5 added WAL (B15); schema 6 added
// Telemetry (B16); schema 7 added Insights (B17); schema 8 added MVCC
// (B18); schema 9 replaced the per-observer sections (trace, flight
// recorder, WAL reads, telemetry, insights) with one Overhead matrix and
// dropped MVCC's mutex-bound read arm; schema 10 dropped B14's
// interpreted family (speedup is compile ÷ cached); schema 11 dropped
// B4's naive arm (one view engine, no rule-iteration mode); schema 12
// added B8/point/two-keys, the index_candidates counter and B14's
// resident plans (plans keyed by statement shape); schema 13 dropped
// B14's prepared family (a prepared statement reads through the plan
// cache, as the cached family does).
const reportSchema = 13

// Benchmark is one measured benchmark in the report.
type Benchmark struct {
	Name        string            `json:"name"`
	Iters       int               `json:"iters"`
	NsPerOp     int64             `json:"ns_per_op"`
	AllocsPerOp uint64            `json:"allocs_per_op"`
	BytesPerOp  uint64            `json:"bytes_per_op"`
	Counters    map[string]uint64 `json:"counters,omitempty"` // evaluator work per op
}

// OverheadArm is one row of the overhead matrix: the E5 query through
// idl.DB.Query with one observer attached (or none, for the baseline).
// Ratio is the design-target figure and is reported; AllocDelta is a
// count, repeats run to run, and is what -validate gates.
type OverheadArm struct {
	Arm         string  `json:"arm"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Ratio       float64 `json:"ratio"`       // ns/op ÷ baseline ns/op
	AllocDelta  int64   `json:"alloc_delta"` // allocs/op − baseline allocs/op
}

// ParallelSpeedup is the B13 summary: wall-clock speedup of parallel
// evaluation at four workers over sequential, for both benchmark
// families. The query family partitions a large in-memory scan across
// workers, so its speedup tracks available CPUs (≈1.0 when GOMAXPROCS
// is 1). The sync family refreshes three slow federated members
// concurrently, so its speedup is latency-bound and holds on any
// machine — that is the family the minSyncSpeedup floor checks.
type ParallelSpeedup struct {
	NumCPU        int     `json:"num_cpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	QuerySpeedup4 float64 `json:"query_speedup_4"` // query w1 ns/op ÷ w4 ns/op
	SyncSpeedup4  float64 `json:"sync_speedup_4"`  // sync w1 ns/op ÷ w4 ns/op
}

// PlanCacheSummary is the B14 summary: the same repeated point-query
// batch evaluated cold-compiled (a plan per run, cache off) and cached
// (the epoch-keyed plan cache).
// Speedup is the headline ratio compile ÷ cached; HitRate is the cached
// family's plan-cache hit fraction over the measured runs, and
// ResidentPlans the plans its cache holds at the end: the batch's 24
// queries are literal variants of one shape, so one.
type PlanCacheSummary struct {
	CompileNsPerOp int64   `json:"compile_ns_per_op"`
	CachedNsPerOp  int64   `json:"cached_ns_per_op"`
	HitRate        float64 `json:"hit_rate"` // hits ÷ (hits + misses)
	Speedup        float64 `json:"speedup"`  // compile ÷ cached
	ResidentPlans  int     `json:"resident_plans"`
}

// WALSummary is the B15 result: the durability tax on the commit path,
// measured three ways: no WAL (the in-memory floor), per-commit fsync
// (DurabilitySync), and group commit (DurabilityGroup), whose
// amortization ratio shows what deferring fsync buys. The read-path tax
// is the overhead matrix's wal arm.
type WALSummary struct {
	ExecOffNsPerOp    int64   `json:"exec_off_ns_per_op"`
	ExecSyncNsPerOp   int64   `json:"exec_sync_ns_per_op"`
	ExecGroupNsPerOp  int64   `json:"exec_group_ns_per_op"`
	GroupAmortization float64 `json:"group_amortization"` // sync ÷ group
}

// MVCCSummary is the B18 result: what epoch-pinned snapshot reads buy.
// The readers family (reported, machine-dependent) runs N concurrent
// point queries per op.  The mixed family is the CI-gated headline and
// measures the one MVCC property that is scheduler-independent: whether
// reads complete while a commit is in flight.  Each round starts one
// writer statement that drags a negated self-join scan through the
// commit path (a multi-millisecond engine-mutex hold), then releases
// four readers and counts only the reads that finish before the
// statement does.  Readers pin the published snapshot and never block,
// so the count is in the hundreds to thousands; a read path that took
// the mutex would count ~zero.  The count holds on one CPU — free-running
// aggregate throughput would not, because the OS scheduler time-shares
// blocked readers' CPU back to the writer.  The ckpt family takes a full
// checkpoint, updates a single relation, checkpoints again, and reports
// written ÷ total bytes for the second checkpoint — the
// incremental-checkpoint ratio, bounded because every unchanged relation
// segment is reused by reference.
type MVCCSummary struct {
	NumCPU          int     `json:"num_cpu"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	ReaderSpeedup4  float64 `json:"reader_speedup_4"`  // 4 × serial ns/op ÷ 4-reader ns/op
	MVCCCommitReads uint64  `json:"mvcc_commit_reads"` // reads finished during commits
	CkptWroteBytes  int64   `json:"ckpt_wrote_bytes"`  // second checkpoint: bytes written
	CkptTotalBytes  int64   `json:"ckpt_total_bytes"`  // second checkpoint: full footprint
	CkptRatio       float64 `json:"ckpt_ratio"`        // wrote ÷ total after one-relation update
}

// Report is the BENCH_report.json envelope.
type Report struct {
	Schema     int              `json:"schema"`
	Short      bool             `json:"short"`
	GoVersion  string           `json:"go_version"`
	Benchmarks []Benchmark      `json:"benchmarks"`
	Overhead   []OverheadArm    `json:"overhead"`
	Parallel   ParallelSpeedup  `json:"parallel"`
	PlanCache  PlanCacheSummary `json:"plan_cache"`
	WAL        WALSummary       `json:"wal"`
	MVCC       MVCCSummary      `json:"mvcc"`
}

// The gates -validate holds a report to. validateReport checks the count
// gates: counts and byte ratios repeat run to run, so their bounds sit
// close to what the benchmarks read and hold on any machine, under -race
// included. validateFloors checks the two time floors, which hold because
// sleeps and fsync bound them rather than CPU. The overhead arms' alloc
// ceilings live with the arms (overheadArms); the evaluator's with
// validateAllocs.
const (
	maxAllocGrowth   = 0.20 // -compare: tolerated fractional allocs/op growth (ns/op is printed, not gated)
	minPlanCacheHit  = 0.95 // B14 cached-family hit rate (0.997–0.9995 measured)
	b14Shapes        = 1    // B14 cached-family resident plans: 24 literal variants of one shape
	b8Days           = 60   // B8's trading days: B8/point/baseline's one-key probe returns one stock's every day
	maxTwoKeyCands   = 2    // B8/point/two-keys index candidates per op (1 measured: stock and day pin one tuple)
	minCommitReads   = 200  // B18 reads done during commits (870–6 800 measured; a mutex-bound read path counts ~0)
	maxCkptRatio     = 0.25 // B18 bytes rewritten ÷ full checkpoint after a one-relation update (0.054 measured)
	minSyncSpeedup   = 1.5  // B13 sync family w1 ÷ w4, three members stalling 2 ms per op (2.9–3.0 measured)
	minGroupAmortize = 1.5  // B15 per-commit fsync ÷ group commit (4.3–5.9 measured)
)

func main() {
	var (
		short    = flag.Bool("short", false, "CI mode: fewer iterations per benchmark")
		out      = flag.String("out", "BENCH_report.json", "report output path")
		validate = flag.String("validate", "", "validate an existing report instead of running")
		compare  = flag.Bool("compare", false, "compare two reports (old.json new.json) and fail on regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: idlbench -compare old.json new.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "idlbench:", err)
			os.Exit(1)
		}
		return
	}
	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "idlbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema %d)\n", *validate, reportSchema)
		return
	}
	rep := runAll(*short)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idlbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "idlbench:", err)
		os.Exit(1)
	}
	f.Close()
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-40s %10d ns/op %8d allocs/op\n", b.Name, b.NsPerOp, b.AllocsPerOp)
	}
	for _, a := range rep.Overhead {
		fmt.Printf("%-40s %10d ns/op %8d allocs/op  ratio=%.3f alloc-delta=%+d\n",
			"overhead/"+a.Arm, a.NsPerOp, a.AllocsPerOp, a.Ratio, a.AllocDelta)
	}
	fmt.Printf("%-40s query=%.2fx sync=%.2fx at 4 workers (cpus=%d gomaxprocs=%d)\n",
		"B13/parallel-speedup", rep.Parallel.QuerySpeedup4, rep.Parallel.SyncSpeedup4,
		rep.Parallel.NumCPU, rep.Parallel.GoMaxProcs)
	fmt.Printf("%-40s %.2fx cached over compile, hit rate %.3f, %d plan(s) (compile=%dns cached=%dns)\n",
		"B14/plan-cache-speedup", rep.PlanCache.Speedup, rep.PlanCache.HitRate, rep.PlanCache.ResidentPlans,
		rep.PlanCache.CompileNsPerOp, rep.PlanCache.CachedNsPerOp)
	fmt.Printf("%-40s group-amortize=%.2fx (exec off=%dns sync=%dns group=%dns)\n",
		"B15/wal-commit", rep.WAL.GroupAmortization,
		rep.WAL.ExecOffNsPerOp, rep.WAL.ExecSyncNsPerOp, rep.WAL.ExecGroupNsPerOp)
	fmt.Printf("%-40s during-commit reads=%d reader-speedup4=%.2fx ckpt-ratio=%.3f (%d/%d bytes)\n",
		"B18/mvcc", rep.MVCC.MVCCCommitReads, rep.MVCC.ReaderSpeedup4,
		rep.MVCC.CkptRatio, rep.MVCC.CkptWroteBytes, rep.MVCC.CkptTotalBytes)
	fmt.Println("wrote", *out)
}

// loadReport reads a report file.
func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: malformed report: %w", path, err)
	}
	return &rep, nil
}

// compareFiles is the bench-regression gate: every benchmark in the old
// report must still exist in the new one and must not allocate more than
// maxAllocGrowth (fractional growth in allocs/op) beyond it. Allocation
// counts repeat run to run; ns/op deltas are printed but, on a shared
// host, scatter too widely to gate. New-only benchmarks are reported but
// never fail the gate.
func compareFiles(w *os.File, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	lines, err := compareReports(oldRep, newRep)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "no allocs/op regressions beyond %.0f%% (%d benchmarks compared)\n",
		maxAllocGrowth*100, len(timings(oldRep)))
	return nil
}

// timings lists every measurement a report records, one name each: the
// benchmarks, then the overhead arms as overhead/<arm>.
func timings(rep *Report) []Benchmark {
	out := append([]Benchmark(nil), rep.Benchmarks...)
	for _, a := range rep.Overhead {
		out = append(out, Benchmark{Name: "overhead/" + a.Arm, NsPerOp: a.NsPerOp, AllocsPerOp: a.AllocsPerOp})
	}
	return out
}

// compareReports renders a per-benchmark delta table (ns/op and
// allocs/op) and fails when any allocs/op grew beyond maxAllocGrowth. A
// benchmark present in old but missing from new counts as a regression
// (a silently dropped measurement must not pass the gate). Reports of
// different schemas measure different things under the same names, so
// they are not compared at all.
func compareReports(oldRep, newRep *Report) (lines []string, err error) {
	if oldRep.Schema != newRep.Schema {
		return nil, fmt.Errorf("schema %d vs %d: re-baseline", oldRep.Schema, newRep.Schema)
	}
	newBy := map[string]Benchmark{}
	for _, b := range timings(newRep) {
		newBy[b.Name] = b
	}
	var regressions []string
	for _, ob := range timings(oldRep) {
		nb, ok := newBy[ob.Name]
		delete(newBy, ob.Name) // what remains is new-only
		if !ok {
			lines = append(lines, fmt.Sprintf("%-40s MISSING from new report", ob.Name))
			regressions = append(regressions, ob.Name)
			continue
		}
		nsDelta := float64(nb.NsPerOp-ob.NsPerOp) / float64(max(ob.NsPerOp, 1))
		allocDelta := (float64(nb.AllocsPerOp) - float64(ob.AllocsPerOp)) / float64(max(ob.AllocsPerOp, 1))
		mark := ""
		if allocDelta > maxAllocGrowth {
			mark = "  REGRESSION"
			regressions = append(regressions, ob.Name)
		}
		lines = append(lines, fmt.Sprintf("%-40s %10d -> %10d ns/op %+6.1f%%  %8d -> %8d allocs/op %+6.1f%%%s",
			ob.Name, ob.NsPerOp, nb.NsPerOp, nsDelta*100, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta*100, mark))
	}
	var added []string
	for name := range newBy {
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		lines = append(lines, fmt.Sprintf("%-40s new benchmark (%d ns/op)", name, newBy[name].NsPerOp))
	}
	if len(regressions) > 0 {
		err = fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% allocs/op: %v",
			len(regressions), maxAllocGrowth*100, regressions)
	}
	return lines, err
}

// validateFile is the -validate path: the count gates, then the time
// floors.
func validateFile(path string) error {
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	if err := validateReport(rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := validateFloors(rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// validateReport checks a report's structure and every count gate:
// the expected schema, every benchmark measured once, the overhead
// matrix complete with each arm's allocs/op inside its ceiling, the B14
// plan-cache hit rate, the index probes of validateProbes, the B18
// during-commit reads and checkpoint ratio, and the evaluator's
// allocs/op under the ceilings of validateAllocs.
// Counts do not depend on the machine, so this holds on every run.
func validateReport(rep *Report) error {
	if rep.Schema != reportSchema {
		return fmt.Errorf("schema %d, want %d", rep.Schema, reportSchema)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks recorded")
	}
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.Name == "" || b.Iters <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %+v not measured", b)
		}
		if seen[b.Name] {
			return fmt.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
	if len(rep.Overhead) != len(overheadArms) {
		return fmt.Errorf("overhead matrix has %d arms, want %d", len(rep.Overhead), len(overheadArms))
	}
	for i, a := range rep.Overhead {
		want := overheadArms[i]
		if a.Arm != want.name || a.NsPerOp <= 0 || a.Ratio <= 0 {
			return fmt.Errorf("overhead arm %d %+v not measured (want %q)", i, a, want.name)
		}
		if a.AllocDelta > want.maxDelta {
			return fmt.Errorf("overhead/%s adds %d allocs/op over the baseline, ceiling %d", a.Arm, a.AllocDelta, want.maxDelta)
		}
	}
	ps := rep.Parallel
	if ps.QuerySpeedup4 <= 0 || ps.SyncSpeedup4 <= 0 {
		return fmt.Errorf("parallel speedup not measured")
	}
	pc := rep.PlanCache
	if pc.CompileNsPerOp <= 0 || pc.CachedNsPerOp <= 0 {
		return fmt.Errorf("plan-cache families not measured")
	}
	if pc.HitRate < minPlanCacheHit {
		return fmt.Errorf("plan cache hit rate %.3f below bound %.3f", pc.HitRate, minPlanCacheHit)
	}
	if pc.ResidentPlans != b14Shapes {
		return fmt.Errorf("plan cache holds %d plans for %d shape(s)", pc.ResidentPlans, b14Shapes)
	}
	if err := validateProbes(rep); err != nil {
		return err
	}
	wl := rep.WAL
	if wl.ExecOffNsPerOp <= 0 || wl.ExecSyncNsPerOp <= 0 || wl.ExecGroupNsPerOp <= 0 {
		return fmt.Errorf("WAL families not measured")
	}
	mv := rep.MVCC
	if mv.MVCCCommitReads < minCommitReads {
		return fmt.Errorf("%d reads completed during commits, floor %d", mv.MVCCCommitReads, minCommitReads)
	}
	if mv.CkptWroteBytes <= 0 || mv.CkptTotalBytes <= 0 {
		return fmt.Errorf("incremental checkpoint not measured")
	}
	if mv.CkptRatio > maxCkptRatio {
		return fmt.Errorf("incremental checkpoint ratio %.3f exceeds bound %.3f", mv.CkptRatio, maxCkptRatio)
	}
	return validateAllocs(rep)
}

// readOnlyFamilies prefix the benchmarks whose ops only read. Warm, such
// an op builds no index: its relations' indexes live on their sets, so
// one lost between evaluations shows as builds per op.
var readOnlyFamilies = []string{"B1/", "B2/", "B3/", "B8/", "B13/query/", "B14/", "B18/mvcc/readers/"}

// validateProbes checks what the index probes cost: no read-only
// benchmark builds an index per op, B8's one-key baseline visits every
// day of its stock, and its two-key lookup the one tuple its stock and
// day pin.
func validateProbes(rep *Report) error {
	cands := map[string]uint64{}
	for _, b := range rep.Benchmarks {
		if c, ok := b.Counters["index_candidates"]; ok {
			cands[b.Name] = c
		}
		if !slices.ContainsFunc(readOnlyFamilies, func(p string) bool { return strings.HasPrefix(b.Name, p) }) {
			continue
		}
		if n, ok := b.Counters["index_builds"]; !ok || n != 0 {
			return fmt.Errorf("%s: %d index builds per op (reported %v), want 0", b.Name, n, ok)
		}
	}
	if c, ok := cands["B8/point/baseline"]; !ok || c != b8Days {
		return fmt.Errorf("B8/point/baseline: %d index candidates per op (reported %v), want %d", c, ok, b8Days)
	}
	if c, ok := cands["B8/point/two-keys"]; !ok || c > maxTwoKeyCands {
		return fmt.Errorf("B8/point/two-keys: %d index candidates per op (reported %v), ceiling %d", c, ok, maxTwoKeyCands)
	}
	return nil
}

// validateFloors checks the two time gates. Both hold on a single CPU —
// the B13 sync family overlaps member stalls, the B15 exec family
// amortizes fsync — but a loaded host still stretches them, so they are
// checked on the -validate path only.
func validateFloors(rep *Report) error {
	if s := rep.Parallel.SyncSpeedup4; s < minSyncSpeedup {
		return fmt.Errorf("parallel sync speedup %.2fx at 4 workers below bound %.2fx", s, minSyncSpeedup)
	}
	if a := rep.WAL.GroupAmortization; a < minGroupAmortize {
		return fmt.Errorf("group-commit amortization %.2fx below bound %.2fx", a, minGroupAmortize)
	}
	return nil
}

// The allocation budgets -validate holds the evaluator to (DESIGN.md
// §19), so the slot-compiled hot path cannot quietly start allocating
// per element or per row again. Counts, not times: they repeat run to
// run, so the ceilings sit close above the measured values.
const (
	// B1, B3 and B8 evaluate one query per op: allocs/op may not exceed
	// maxAllocsPerEval (evaluator set-up, the answer) plus
	// maxAllocsPerElement for each set
	// element the op scans.
	maxAllocsPerElement = 0.25
	maxAllocsPerEval    = 128
	// B4: one full materialisation of the stock views (5 592 measured
	// once derived facts are built over precomputed tuple layouts,
	// DESIGN.md §22).
	maxMaterializeAllocs = 6000
	// B13/query at every worker count: a 1 920-element self-join, whose
	// workers each bring their own set-up.
	maxParallelQueryAllocs = 400
)

// validateAllocs checks a report's allocs/op against the ceilings. A
// family the report does not contain is not an error here —
// validateReport already insists every benchmark was measured.
func validateAllocs(rep *Report) error {
	for _, b := range rep.Benchmarks {
		var limit float64
		switch {
		case strings.HasPrefix(b.Name, "B1/"), strings.HasPrefix(b.Name, "B3/"), strings.HasPrefix(b.Name, "B8/"):
			limit = maxAllocsPerEval + maxAllocsPerElement*float64(b.Counters["elements_scanned"])
		case strings.HasPrefix(b.Name, "B4/"):
			limit = maxMaterializeAllocs
		case strings.HasPrefix(b.Name, "B13/query/"):
			limit = maxParallelQueryAllocs
		default:
			continue
		}
		if float64(b.AllocsPerOp) > limit {
			return fmt.Errorf("%s: %d allocs/op exceeds the ceiling of %.0f (%d elements scanned per op)",
				b.Name, b.AllocsPerOp, limit, b.Counters["elements_scanned"])
		}
	}
	return nil
}

// arm is one configuration measure times: fn is the op; e, when
// non-nil, is the engine whose evaluator counters are reported per op.
type arm struct {
	name string
	e    *core.Engine
	fn   func()
}

// measure times arms with calibrated iteration counts, reporting ns/op,
// allocations and evaluator counters per op. Arms run interleaved — every
// batch cycles through all of them — so a shift in host load lands on
// each arm alike and ratios between them stay comparable. A one-arm
// family is the common case.
func measure(short bool, arms ...arm) []Benchmark {
	target := 100 * time.Millisecond
	minIters := 5
	batches := 3
	if short {
		// Short batches are cheap, so take more of them: under bursty
		// host contention the minimum over eight 20 ms batches is far
		// more likely to catch a quiet window than over three, which is
		// what keeps the regression gate's run-to-run variance down.
		target = 20 * time.Millisecond
		minIters = 2
		batches = 8
	}
	iters := make([]int, len(arms))
	for i, a := range arms {
		a.fn() // warm caches, force lazy materialization
		// Calibrate from a single timed run.
		t0 := time.Now()
		a.fn()
		per := time.Since(t0)
		iters[i] = minIters
		if per > 0 && int(target/per) > iters[i] {
			iters[i] = int(target / per)
		}
		iters[i] = min(iters[i], 1<<20)
	}
	// Minimum over the batches: scheduler or GC interference inflates a
	// batch's time, and other goroutines its allocation count, but
	// neither ever deflates one, so the minimum is the stable estimate.
	out := make([]Benchmark, len(arms))
	var msBefore, msAfter runtime.MemStats
	for rep := 0; rep < batches; rep++ {
		for i, a := range arms {
			runtime.GC()
			if a.e != nil {
				a.e.ResetStats()
			}
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			for n := 0; n < iters[i]; n++ {
				a.fn()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&msAfter)
			n := uint64(iters[i])
			// Sub-ns loops still count as measured.
			ns := max(elapsed.Nanoseconds()/int64(n), 1)
			allocs := (msAfter.Mallocs - msBefore.Mallocs) / n
			bytes := (msAfter.TotalAlloc - msBefore.TotalAlloc) / n
			b := &out[i]
			if rep == 0 {
				*b = Benchmark{Name: a.name, Iters: iters[i], NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
			} else {
				b.NsPerOp = min(b.NsPerOp, ns)
				b.AllocsPerOp = min(b.AllocsPerOp, allocs)
				b.BytesPerOp = min(b.BytesPerOp, bytes)
			}
			if a.e != nil {
				b.Counters = perOpCounters(a.e.Stats(), n)
			}
		}
	}
	return out
}

// perOpCounters reports a batch's evaluator counters per op over its n
// ops. Index builds round up, so a batch that built any index reads at
// least 1 and fails the read-only gate (validateProbes) even when it
// built one for many ops.
func perOpCounters(st core.Stats, n uint64) map[string]uint64 {
	return map[string]uint64{
		"elements_scanned": st.ElementsScanned / n,
		"index_probes":     st.IndexProbes / n,
		"index_candidates": st.IndexCandidates / n,
		"index_builds":     (st.IndexBuilds + n - 1) / n,
		"attr_enums":       st.AttrEnums / n,
	}
}

// engineFor builds an engine over a generated stock universe.
func engineFor(cfg stocks.Config, opts core.Options) (*core.Engine, *stocks.Dataset) {
	e := core.NewEngineWithOptions(opts)
	return e, populate(e, cfg)
}

// populate loads the generated stock universe into an engine's base.
func populate(e *core.Engine, cfg stocks.Config) *stocks.Dataset {
	u, ds := stocks.Universe(cfg)
	u.Each(func(db string, v object.Object) bool {
		e.Base().Put(db, v)
		return true
	})
	e.Invalidate()
	return ds
}

func mustQuery(src string) func(*core.Engine) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return func(e *core.Engine) {
		if _, err := e.Query(q); err != nil {
			panic(err)
		}
	}
}

func mustAddRules(e *core.Engine, rules ...string) {
	for _, r := range rules {
		rule, err := parser.ParseRule(r)
		if err != nil {
			panic(err)
		}
		if err := e.AddRule(rule); err != nil {
			panic(err)
		}
	}
}

// overheadArms is the observer overhead matrix (DESIGN.md §8–§9,
// §13–§15): each arm adds exactly one observer to the baseline, a DB with
// the flight recorder at 0. maxDelta caps the arm's allocs/op over the
// baseline's; counts repeat run to run, so each ceiling sits close above
// the delta measured (in the comment; -race adds one to flightrec and
// capture).
var overheadArms = []struct {
	name     string
	maxDelta int64
	open     func(dir string) *idl.DB // dir: scratch space for the wal arm
}{
	{"baseline", 0, func(string) *idl.DB { return quietDB(idl.Open()) }},
	{"flightrec", 8, func(string) *idl.DB { return idl.Open() }},                                                           // +5: the default 256-event ring
	{"metrics", 0, func(string) *idl.DB { db := quietDB(idl.Open()); db.Metrics(); return db }},                            // +0: windows and SLOs included
	{"traced", 30, func(string) *idl.DB { db := quietDB(idl.Open()); db.EnableTracing(4); return db }},                     // +23: the span and one child per body conjunct
	{"wal", 0, func(dir string) *idl.DB { return quietDB(openWAL(dir, idl.DurabilitySync)) }},                              // +0: reads never append
	{"digests", 1, func(string) *idl.DB { db := quietDB(idl.Open()); db.EnableInsights(idl.InsightsConfig{}); return db }}, // +1
	{"capture", 6, func(string) *idl.DB { // +3: every statement crosses the slow threshold
		db := quietDB(idl.Open())
		db.EnableInsights(idl.InsightsConfig{SlowThreshold: time.Nanosecond})
		return db
	}},
}

// quietDB turns db's flight recorder off.
func quietDB(db *idl.DB) *idl.DB {
	db.SetFlightRecorderSize(0)
	return db
}

// closeAll closes measured DBs, so no WAL flusher outlives its family.
func closeAll(dbs []*idl.DB) {
	for _, db := range dbs {
		if err := db.Close(); err != nil {
			panic(err)
		}
	}
}

// openWAL opens a durable session in dir.
func openWAL(dir string, mode idl.Durability) *idl.DB {
	db, _, err := idl.OpenWAL(dir, idl.WALOptions{Durability: mode})
	if err != nil {
		panic(err)
	}
	return db
}

// runAll executes every family. The set mirrors bench_test.go on one
// representative configuration per benchmark, so a snapshot stays
// comparable to `go test -bench` output.
func runAll(short bool) *Report {
	rep := &Report{Schema: reportSchema, Short: short, GoVersion: runtime.Version()}
	add := func(bs ...Benchmark) { rep.Benchmarks = append(rep.Benchmarks, bs...) }
	n := 32
	if short {
		n = 8
	}

	// B1: the E3 intention on all three schemas.
	{
		e, ds := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 7}, core.DefaultOptions())
		queries := stocks.QueryAnyAbove(ds.MaxPrice() * 3 / 4)
		for _, schema := range []string{"euter", "chwab", "ource"} {
			run := mustQuery(queries[schema])
			add(measure(short, arm{"B1/anyAbove/" + schema, e, func() { run(e) }})...)
		}
	}

	// B2: cross-database join chwab × ource.
	{
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 9}, core.DefaultOptions())
		run := mustQuery(stocks.QueryCrossJoin)
		add(measure(short, arm{"B2/crossJoin", e, func() { run(e) }})...)
	}

	// B3: negation, indexed vs scan.
	for _, useIndex := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.UseIndex = useIndex
		e, _ := engineFor(stocks.Config{Stocks: 16, Days: 60, Seed: 13}, opts)
		run := mustQuery("?.euter.r(.stkCode=stk001,.clsPrice=P,.date=D), .euter.r~(.stkCode=stk001, .clsPrice>P)")
		name := "B3/negation/scan"
		if useIndex {
			name = "B3/negation/indexed"
		}
		add(measure(short, arm{name, e, func() { run(e) }})...)
	}

	// B4: one full view refresh from the empty overlay.
	{
		e, _ := engineFor(stocks.Config{Stocks: 16, Days: 20, Seed: 17}, core.DefaultOptions())
		mustAddRules(e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...)...)
		add(measure(short, arm{"B4/materialize/seminaive", e, func() {
			e.Invalidate()
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}})...)
	}

	// B5: higher-order view fan-out (one derived relation per stock).
	{
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 5, Seed: 19}, core.DefaultOptions())
		mustAddRules(e, stocks.RulesUnified...)
		mustAddRules(e, ".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)")
		add(measure(short, arm{"B5/fanout", e, func() {
			e.Invalidate()
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}})...)
	}

	// B6: update program call vs direct base update.
	{
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 23}, core.DefaultOptions())
		for _, c := range append(append([]string{}, stocks.ProgramDelStk...), stocks.ProgramInsStk...) {
			cl, err := parser.ParseClause(c)
			if err != nil {
				panic(err)
			}
			if err := e.AddClause(cl); err != nil {
				panic(err)
			}
		}
		i := 0
		add(measure(short, arm{"B6/insStk", e, func() {
			src := fmt.Sprintf("?.dbU.insStk(.stk=new%06d, .date=1/2/86, .price=%d)", i, 10+i%100)
			i++
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			if _, err := e.Execute(q); err != nil {
				panic(err)
			}
		}})...)
	}

	// B7: Figure 1 round trip (build engine + rules + materialize).
	{
		add(measure(short, arm{"B7/roundTrip", nil, func() {
			e, _ := engineFor(stocks.Config{Stocks: 8, Days: 10, Seed: 29}, core.DefaultOptions())
			mustAddRules(e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...)...)
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}})...)
	}

	// B8: ablations on a point query, and the same lookup pinned to one
	// day as well — a probe on two keys.
	for _, tc := range []struct {
		name    string
		opts    core.Options
		pinDate bool
	}{
		{"baseline", core.DefaultOptions(), false},
		{"no-index", func() core.Options { o := core.DefaultOptions(); o.UseIndex = false; return o }(), false},
		{"no-schedule", func() core.Options { o := core.DefaultOptions(); o.NoSchedule = true; return o }(), false},
		{"two-keys", core.DefaultOptions(), true},
	} {
		e, ds := engineFor(stocks.Config{Stocks: 64, Days: b8Days, Seed: 31}, tc.opts)
		src := "?.euter.r(.stkCode=stk033, .date=D, .clsPrice=P)"
		if tc.pinDate {
			src = fmt.Sprintf("?.euter.r(.stkCode=stk033, .date=%s, .clsPrice=P)", ds.Dates[b8Days/2])
		}
		run := mustQuery(src)
		add(measure(short, arm{"B8/point/" + tc.name, e, func() { run(e) }})...)
	}

	// B9: view maintenance after an additive update — by delta (the
	// engine's refresh) vs from scratch (Invalidate forces it). Each op
	// deletes the stock it inserted once its read is done, so euter.r and
	// the view are the same size at every op: the delta read maintains
	// the previous op's delete and this op's insert, and allocs/op does
	// not depend on how many ops the calibration chose.
	for _, full := range []bool{false, true} {
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 37}, core.DefaultOptions())
		mustAddRules(e, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
		run := mustQuery("?.dbI.p(.stk=stk001)")
		run(e)
		name := "B9/maintenance/delta"
		if full {
			name = "B9/maintenance/full"
		}
		exec := func(src string) {
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			if _, err := e.Execute(q); err != nil {
				panic(err)
			}
		}
		i := 0
		add(measure(short, arm{name, e, func() {
			stock := fmt.Sprintf("inc%06d", i)
			exec(fmt.Sprintf("?.euter.r+(.date=1/2/86, .stkCode=%s, .clsPrice=%d)", stock, i%100))
			i++
			if full {
				e.Invalidate()
			}
			run(e)
			exec(fmt.Sprintf("?.euter.r-(.date=1/2/86, .stkCode=%s)", stock))
		}})...)
	}

	// Overhead matrix: what each observer costs the E5 query. Every arm
	// runs through idl.DB.Query — what callers call — on the same
	// universe, and the arms run interleaved against one shared baseline.
	{
		dir, err := os.MkdirTemp("", "idlbench-overhead-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		src := stocks.QueryHighestPerDay()["euter"]
		var arms []arm
		var dbs []*idl.DB
		for _, oa := range overheadArms {
			db := oa.open(dir)
			dbs = append(dbs, db)
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
			arms = append(arms, arm{"overhead/" + oa.name, db.Engine(), func() {
				if _, err := db.Query(src); err != nil {
					panic(err)
				}
			}})
		}
		bs := measure(short, arms...)
		closeAll(dbs)
		base := bs[0]
		for i, b := range bs {
			rep.Overhead = append(rep.Overhead, OverheadArm{
				Arm:         overheadArms[i].name,
				NsPerOp:     b.NsPerOp,
				AllocsPerOp: b.AllocsPerOp,
				BytesPerOp:  b.BytesPerOp,
				Ratio:       float64(b.NsPerOp) / float64(base.NsPerOp),
				AllocDelta:  int64(b.AllocsPerOp) - int64(base.AllocsPerOp),
			})
		}
	}

	// B13: parallel evaluation speedup at 1/2/4/8 workers, two families.
	// The query family partitions a large negated self-join scan; its
	// speedup tracks GOMAXPROCS. The sync family refreshes three slow
	// federated members (every source operation stalls 2ms); concurrent
	// fetches overlap the stalls, so its speedup holds on one CPU.
	{
		src := "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"
		var query, fed []arm
		for _, w := range []int{1, 2, 4, 8} {
			opts := core.DefaultOptions()
			opts.Workers = w
			e, _ := engineFor(stocks.Config{Stocks: 48, Days: 40, Seed: 47}, opts)
			run := mustQuery(src)
			query = append(query, arm{fmt.Sprintf("B13/query/w%d", w), e, func() { run(e) }})
			db := slowFederationDB(w)
			fed = append(fed, arm{fmt.Sprintf("B13/sync/w%d", w), nil, func() {
				if _, err := db.Sync(context.Background()); err != nil {
					panic(err)
				}
			}})
		}
		qs, ss := measure(short, query...), measure(short, fed...)
		add(qs...)
		add(ss...)
		rep.Parallel = ParallelSpeedup{
			NumCPU:        runtime.NumCPU(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			QuerySpeedup4: float64(qs[0].NsPerOp) / float64(qs[2].NsPerOp),
			SyncSpeedup4:  float64(ss[0].NsPerOp) / float64(ss[2].NsPerOp),
		}
	}

	// B14: plan caching on a repeated-query workload. One op runs a fixed
	// batch of selective point queries (index probes, cheap execution, so
	// planning work is a visible fraction) in two families: compile
	// builds a fresh plan per evaluation with the cache off, cached reuses
	// epoch-validated plans. Both answer byte-identically (the difftest
	// grid pins that); this measures what the reuse is worth.
	{
		// Three days keeps each probe's result tiny, so per-query planning
		// work — the thing the cache elides — is a measurable fraction.
		b14cfg := stocks.Config{Stocks: 64, Days: 3, Seed: 53}
		const batch = 24
		var srcs []string
		for i := 0; i < batch; i++ {
			srcs = append(srcs, fmt.Sprintf("?.euter.r(.stkCode=stk%03d, .date=D, .clsPrice=P), P > 10", i+1))
		}
		parsed := make([]*ast.Query, batch)
		for i, src := range srcs {
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			parsed[i] = q
		}
		runBatch := func(e *core.Engine) {
			for _, q := range parsed {
				if _, err := e.Query(q); err != nil {
					panic(err)
				}
			}
		}
		var arms []arm
		for _, fam := range []struct {
			name string
			opts func() core.Options
		}{
			{"compile", func() core.Options { o := core.DefaultOptions(); o.NoPlanCache = true; return o }},
			{"cached", core.DefaultOptions},
		} {
			e, _ := engineFor(b14cfg, fam.opts())
			arms = append(arms, arm{"B14/plancache/" + fam.name, e, func() { runBatch(e) }})
		}
		bs := measure(short, arms...)
		add(bs...)
		st := arms[1].e.PlanCacheStats()
		rep.PlanCache = PlanCacheSummary{
			CompileNsPerOp: bs[0].NsPerOp,
			CachedNsPerOp:  bs[1].NsPerOp,
			HitRate:        float64(st.Hits) / float64(max(st.Hits+st.Misses, 1)),
			Speedup:        float64(bs[0].NsPerOp) / float64(bs[1].NsPerOp),
			ResidentPlans:  st.Size,
		}
	}

	// B15: the durability tax on the commit path. Unique-key inserts
	// (every op commits one tuple, so every op appends and, in sync mode,
	// fsyncs) under no WAL, per-commit fsync, and group commit, run
	// interleaved; the sync÷group ratio is what deferring fsync to the
	// 64 KiB group threshold buys back.
	{
		dir, err := os.MkdirTemp("", "idlbench-wal-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		var arms []arm
		var dbs []*idl.DB
		for _, m := range []struct {
			name string
			open func() *idl.DB
		}{
			{"exec-off", idl.Open},
			{"exec-sync", func() *idl.DB { return openWAL(filepath.Join(dir, "sync"), idl.DurabilitySync) }},
			{"exec-group", func() *idl.DB { return openWAL(filepath.Join(dir, "group"), idl.DurabilityGroup) }},
		} {
			db := m.open()
			dbs = append(dbs, db)
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
			// Unique keys per op: duplicate inserts would commit zero
			// changes and skip the append, measuring nothing.
			seq := 0
			arms = append(arms, arm{"B15/wal/" + m.name, db.Engine(), func() {
				seq++
				stmt := fmt.Sprintf("?.euter.r+(.date=3/1/85,.stkCode=b%d,.clsPrice=%d)", seq, 10+seq%90)
				if _, err := db.Exec(stmt); err != nil {
					panic(err)
				}
			}})
		}
		bs := measure(short, arms...)
		closeAll(dbs)
		add(bs...)
		rep.WAL = WALSummary{
			ExecOffNsPerOp:    bs[0].NsPerOp,
			ExecSyncNsPerOp:   bs[1].NsPerOp,
			ExecGroupNsPerOp:  bs[2].NsPerOp,
			GroupAmortization: float64(bs[1].NsPerOp) / float64(bs[2].NsPerOp),
		}
	}

	// B18: the MVCC dividend, three families (DESIGN.md §17).
	{
		parse := func(src string) *ast.Query {
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			return q
		}
		const readSrc = "?.euter.r(.stkCode=stk001, .clsPrice=P)"
		readQ := parse(readSrc)

		// Readers: N concurrent point queries per op on the default
		// snapshot-read engine. Reported, not gated: per-read scaling
		// tracks GOMAXPROCS (≈1.0 on one CPU), the difftest grid pins
		// that the answers stay byte-identical.
		{
			e, _ := engineFor(stocks.Config{Stocks: 48, Days: 40, Seed: 59}, core.DefaultOptions())
			runRead := func() {
				if _, err := e.Query(readQ); err != nil {
					panic(err)
				}
			}
			var arms []arm
			for _, readers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("B18/mvcc/readers/%d", readers)
				fn := runRead
				if readers == 1 {
					name = "B18/mvcc/readers/serial"
				} else {
					fn = func() {
						var wg sync.WaitGroup
						for i := 0; i < readers; i++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								runRead()
							}()
						}
						wg.Wait()
					}
				}
				arms = append(arms, arm{name, e, fn})
			}
			bs := measure(short, arms...)
			add(bs...)
			rep.MVCC.NumCPU = runtime.NumCPU()
			rep.MVCC.GoMaxProcs = runtime.GOMAXPROCS(0)
			rep.MVCC.ReaderSpeedup4 = float64(bs[0].NsPerOp*4) / float64(bs[2].NsPerOp)
		}

		// Mixed: can four readers make progress while a commit is in
		// flight? Each round starts one writer statement whose negated
		// self-join scan holds the engine mutex for several milliseconds,
		// waits for the writer to be inside its critical section, then
		// releases the readers and counts only reads that FINISH before
		// the statement does. Snapshot readers keep reading the published
		// head; a read path that took the mutex would count ~0. Counting
		// completions during the commit — rather than free-running
		// throughput over a window — is what makes the gate hold on one
		// CPU: a blocked reader's timeslice goes back to the writer, so
		// wall-clock aggregate rates would look alike either way. The
		// readers go through idl.DB.Query — parse, statement pipeline and
		// all — because that is what callers call: a facade that took the
		// engine mutex for its own bookkeeping would freeze them too, and
		// the gate must see it.
		{
			db := idl.Open()
			e := db.Engine()
			populate(e, stocks.Config{Stocks: 96, Days: 40, Seed: 61})
			read := func() {
				if _, err := db.Query(readSrc); err != nil {
					panic(err)
				}
			}
			// Flip one tuple in and out so every commit mutates; the scan
			// conjuncts are the lock hold.
			ins := parse("?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P), .euter.r+(.date=1/2/86,.stkCode=mix,.clsPrice=42)")
			del := parse("?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P), .euter.r-(.stkCode=mix)")
			// Warm both statement plans and publish a head.
			for _, stmt := range []*ast.Query{ins, del} {
				if _, err := e.Execute(stmt); err != nil {
					panic(err)
				}
			}
			read()
			rounds := 6
			if short {
				rounds = 3
			}
			var during atomic.Uint64
			var inFlight atomic.Bool
			for i := 0; i < rounds; i++ {
				stmt := ins
				if i%2 == 1 {
					stmt = del
				}
				release := make(chan struct{})
				roundDone := make(chan struct{})
				inFlight.Store(true)
				go func() {
					if _, err := e.Execute(stmt); err != nil {
						panic(err)
					}
					inFlight.Store(false)
					close(roundDone)
				}()
				var wg sync.WaitGroup
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-release
						for {
							select {
							case <-roundDone:
								return
							default:
							}
							read()
							// Completions after the statement finished
							// don't count.
							if inFlight.Load() {
								during.Add(1)
							}
						}
					}()
				}
				// The readers are quiescent, so the writer acquires the
				// engine mutex immediately; by the time this sleep returns
				// it is deep inside its scan.
				time.Sleep(500 * time.Microsecond)
				close(release)
				<-roundDone
				wg.Wait()
				// Republish the head for the next round (the commit
				// invalidated it).
				read()
			}
			rep.MVCC.MVCCCommitReads = during.Load()
		}

		// Checkpoint ratio: full checkpoint, single-relation update,
		// checkpoint again; the second checkpoint's wrote ÷ total bytes is
		// the incremental ratio (every unchanged relation segment reused).
		{
			dir, err := os.MkdirTemp("", "idlbench-ckpt-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			db := openWAL(dir, idl.DurabilitySync)
			defer db.Close()
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
			if _, err := db.Checkpoint(); err != nil {
				panic(err)
			}
			if _, err := db.Exec("?.ource.stk001+(.date=1/2/86,.clsPrice=55)"); err != nil {
				panic(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				panic(err)
			}
			st, ok := db.WALStatus()
			if !ok {
				panic("WAL status unavailable on a durable session")
			}
			rep.MVCC.CkptWroteBytes = st.CheckpointWroteBytes
			rep.MVCC.CkptTotalBytes = st.CheckpointTotalBytes
			rep.MVCC.CkptRatio = float64(st.CheckpointWroteBytes) / float64(st.CheckpointTotalBytes)
		}
	}

	return rep
}

// slowFederationDB mounts three single-relation members whose every
// operation stalls 2ms (SlowRate 1), the B13 sync fixture. Each member
// fetch costs one Relations call plus one Scan — ~4ms — so a sequential
// sync pays ~12ms while four workers pay ~4ms.
func slowFederationDB(workers int) *idl.DB {
	db := idl.Open()
	db.SetWorkers(workers)
	for i, name := range []string{"alpha", "beta", "gamma"} {
		member := idl.Tup("r", idl.SetOf(
			idl.Tup("date", idl.Date(85, 3, 3), "stkCode", fmt.Sprintf("stk%d", i), "clsPrice", 100+i),
			idl.Tup("date", idl.Date(85, 3, 4), "stkCode", fmt.Sprintf("stk%d", i), "clsPrice", 110+i),
		))
		src := federation.Inject(federation.NewMemorySource(name, member), federation.InjectorConfig{
			SlowRate: 1,
			Latency:  2 * time.Millisecond,
		})
		if err := db.Mount(name, src); err != nil {
			panic(err)
		}
	}
	return db
}
