// Command idlbench is the repository's benchmark snapshot pipeline: it
// runs the B1–B18 engine benchmarks (see DESIGN.md §5, §8, §10–§15, §17)
// against the deterministic internal/stocks workload and writes a
// machine-readable BENCH_report.json — per-benchmark ns/op, allocs/op,
// and the engine's evaluator counters — so performance can be compared
// across commits without parsing `go test -bench` text.
//
// Usage:
//
//	idlbench [-short] [-out BENCH_report.json]   run and write a report
//	idlbench -validate BENCH_report.json         check an existing report
//	idlbench -compare old.json new.json          regression-gate two reports
//
// Flags:
//
//	-short                CI mode: fewer iterations per benchmark
//	-out path             where to write the report (default BENCH_report.json)
//	-max-trace-overhead   validation bound on the enabled-tracing slowdown
//	                      ratio (traced ns/op ÷ plain ns/op); see §8
//	-max-flight-overhead  validation bound on the flight-recorder slowdown
//	                      ratio (recorder-on ns/op ÷ recorder-off ns/op)
//	-max-regress          compare mode: fail when any benchmark's ns/op
//	                      grew by more than this fraction (default 0.25)
//	-min-parallel-speedup validation bound on the B13 sync-family speedup
//	                      at four workers (w1 ns/op ÷ w4 ns/op); the sync
//	                      family is latency-bound, so the bound holds even
//	                      on single-CPU machines
//	-min-plan-cache-hit   validation bound on the B14 cached-family plan
//	                      cache hit rate (hits ÷ lookups)
//	-min-plan-speedup     validation bound on the B14 repeated-query
//	                      speedup (interpreted ns/op ÷ cached ns/op)
//	-max-wal-overhead     validation bound on the B15 query-family WAL
//	                      tax (WAL-on ns/op ÷ WAL-off ns/op): reads never
//	                      append, so the bound is tight
//	-min-group-amortize   validation bound on the B15 exec-family group-
//	                      commit amortization (sync ns/op ÷ group ns/op)
//	-max-telemetry-overhead validation bound on the B16 windowed-telemetry
//	                      tax (windowed ns/op ÷ off ns/op): rolling
//	                      histograms and SLO trackers must stay within a
//	                      few percent of the uninstrumented engine
//	-max-insights-overhead validation bound on the B17 statement-digest
//	                      tax (digests ns/op ÷ off ns/op): fingerprinting,
//	                      digest accounting and the windowed latency
//	                      histogram must stay within a few percent
//	-min-read-scaling     validation bound on the B18 mixed-workload read
//	                      scaling: reads completed by four readers WHILE a
//	                      writer's statement was executing, snapshot-read
//	                      engine ÷ SerialReads engine. Serial readers
//	                      block on the engine mutex for the whole commit,
//	                      so the bound holds even on single-CPU machines
//	-max-ckpt-ratio       validation bound on the B18 incremental
//	                      checkpoint ratio (bytes written ÷ full
//	                      checkpoint footprint after a single-relation
//	                      update): unchanged relation segments must be
//	                      reused by reference
//
// -validate also holds the evaluator to fixed allocs/op ceilings (see
// validateAllocs); they are counts, not times, so they take no flag.
//
// The workload is seeded, so the report's structure — benchmark names,
// iteration floors, engine counters — is identical run to run; only the
// timing fields vary with the machine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
	"idl/internal/obs"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// reportSchema versions the report layout for downstream tooling.
// Schema 2 added FlightOverhead; schema 3 added Parallel (B13); schema 4
// added PlanCache (B14); schema 5 added WAL (B15); schema 6 added
// Telemetry (B16); schema 7 added Insights (B17); schema 8 added MVCC
// (B18).
const reportSchema = 8

// Benchmark is one measured benchmark in the report.
type Benchmark struct {
	Name        string            `json:"name"`
	Iters       int               `json:"iters"`
	NsPerOp     int64             `json:"ns_per_op"`
	AllocsPerOp uint64            `json:"allocs_per_op"`
	BytesPerOp  uint64            `json:"bytes_per_op"`
	Counters    map[string]uint64 `json:"counters,omitempty"` // evaluator work per op
}

// TraceOverhead is the B12 result: the same query with observability
// off, with metrics attached, and with metrics plus tracing.
type TraceOverhead struct {
	OffNsPerOp     int64   `json:"off_ns_per_op"`
	MetricsNsPerOp int64   `json:"metrics_ns_per_op"`
	TracedNsPerOp  int64   `json:"traced_ns_per_op"`
	TracedRatio    float64 `json:"traced_ratio"` // traced ÷ off
}

// FlightOverhead is the flight-recorder half of B12: the same query at
// the DB layer (where events are recorded) with the ring disabled and
// at its default capacity, tracing off. The design target is ≤5%; the
// validation default is looser to absorb timer noise on small ns/op.
type FlightOverhead struct {
	OffNsPerOp int64   `json:"off_ns_per_op"`
	OnNsPerOp  int64   `json:"on_ns_per_op"`
	Ratio      float64 `json:"ratio"` // on ÷ off
}

// ParallelSpeedup is the B13 summary: wall-clock speedup of parallel
// evaluation at four workers over sequential, for both benchmark
// families. The query family partitions a large in-memory scan across
// workers, so its speedup tracks available CPUs (≈1.0 when GOMAXPROCS
// is 1). The sync family refreshes three slow federated members
// concurrently, so its speedup is latency-bound and holds on any
// machine — that is the family the validation gate checks.
type ParallelSpeedup struct {
	NumCPU        int     `json:"num_cpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	QuerySpeedup4 float64 `json:"query_speedup_4"` // query w1 ns/op ÷ w4 ns/op
	SyncSpeedup4  float64 `json:"sync_speedup_4"`  // sync w1 ns/op ÷ w4 ns/op
}

// PlanCacheSummary is the B14 summary: the same repeated point-query
// batch evaluated interpreted (analysis recomputed per run), cold-
// compiled (a plan per run, cache off), cached (the epoch-keyed plan
// cache) and prepared (DB.Prepare once, execute many). Speedup is the
// headline ratio interpreted ÷ cached; HitRate is the cached family's
// plan-cache hit fraction over the measured runs.
type PlanCacheSummary struct {
	InterpretedNsPerOp int64   `json:"interpreted_ns_per_op"`
	CompileNsPerOp     int64   `json:"compile_ns_per_op"`
	CachedNsPerOp      int64   `json:"cached_ns_per_op"`
	PreparedNsPerOp    int64   `json:"prepared_ns_per_op"`
	HitRate            float64 `json:"hit_rate"` // hits ÷ (hits + misses)
	Speedup            float64 `json:"speedup"`  // interpreted ÷ cached
}

// WALSummary is the B15 result: the durability tax. The query family
// runs the same read with and without a WAL attached — reads never
// append, so the ratio bounds the bookkeeping overhead. The exec family
// measures the commit path three ways: no WAL (the in-memory floor),
// per-commit fsync (DurabilitySync), and group commit (DurabilityGroup),
// whose amortization ratio shows what deferring fsync buys.
type WALSummary struct {
	QueryOffNsPerOp   int64   `json:"query_off_ns_per_op"`
	QueryOnNsPerOp    int64   `json:"query_on_ns_per_op"`
	QueryRatio        float64 `json:"query_ratio"` // on ÷ off
	ExecOffNsPerOp    int64   `json:"exec_off_ns_per_op"`
	ExecSyncNsPerOp   int64   `json:"exec_sync_ns_per_op"`
	ExecGroupNsPerOp  int64   `json:"exec_group_ns_per_op"`
	GroupAmortization float64 `json:"group_amortization"` // sync ÷ group
}

// TelemetrySummary is the B16 result: the windowed-telemetry tax on the
// E5 query. off is the nil-registry floor; metrics attaches a registry
// with windowed instruments disabled (cumulative counters and histograms
// only); windowed is the production default — rolling-window histograms
// plus SLO trackers observing every operation; traced additionally
// attaches the span tracer. WindowedRatio (windowed ÷ off) is the
// CI-gated headline: live rolling quantiles and burn rates must cost only
// a few percent even on a cheap query.
type TelemetrySummary struct {
	OffNsPerOp      int64   `json:"off_ns_per_op"`
	MetricsNsPerOp  int64   `json:"metrics_ns_per_op"`
	WindowedNsPerOp int64   `json:"windowed_ns_per_op"`
	TracedNsPerOp   int64   `json:"traced_ns_per_op"`
	WindowedRatio   float64 `json:"windowed_ratio"` // windowed ÷ off
}

// InsightsSummary is the B17 result: the statement-digest tax on the E5
// query at the DB layer. off is a plain DB; digests enables the insights
// store with slow-query capture off (the production default shape:
// fingerprint, counter and windowed-histogram updates per query);
// capture sets an always-firing slow threshold so every op also snapshots
// an exemplar — the worst case, reported but not gated. DigestsRatio
// (digests ÷ off) is the CI-gated headline.
type InsightsSummary struct {
	OffNsPerOp     int64   `json:"off_ns_per_op"`
	DigestsNsPerOp int64   `json:"digests_ns_per_op"`
	CaptureNsPerOp int64   `json:"capture_ns_per_op"`
	DigestsRatio   float64 `json:"digests_ratio"` // digests ÷ off
}

// MVCCSummary is the B18 result: what epoch-pinned snapshot reads buy.
// The readers family (reported, machine-dependent) runs N concurrent
// point queries per op on the default snapshot-read engine.  The mixed
// family is the CI-gated headline and measures the one MVCC property
// that is scheduler-independent: whether reads complete while a commit
// is in flight.  Each round starts one writer statement that drags a
// negated self-join scan through the commit path (a multi-millisecond
// engine-mutex hold), then releases four readers and counts only the
// reads that finish before the statement does.  On a SerialReads engine
// (the pre-MVCC architecture) every read takes the mutex, so the count
// is ~zero; on the default engine readers pin the published snapshot
// and never block, so the count is thousands.  ReadScaling is the
// snapshot ÷ serial ratio (serial clamped to ≥1), and it holds on one
// CPU — free-running aggregate throughput would not, because the OS
// scheduler time-shares blocked readers' CPU back to the writer and
// the arms converge.  The ckpt family takes a full checkpoint, updates
// a single relation, checkpoints again, and reports written ÷ total
// bytes for the second checkpoint — the incremental-checkpoint ratio,
// bounded because every unchanged relation segment is reused by
// reference.
type MVCCSummary struct {
	NumCPU            int     `json:"num_cpu"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	ReaderSpeedup4    float64 `json:"reader_speedup_4"`    // 4 × serial ns/op ÷ 4-reader ns/op
	SerialCommitReads uint64  `json:"serial_commit_reads"` // reads finished during commits, SerialReads engine
	MVCCCommitReads   uint64  `json:"mvcc_commit_reads"`   // reads finished during commits, snapshot engine
	ReadScaling       float64 `json:"read_scaling"`        // mvcc ÷ max(serial, 1) commit reads
	CkptWroteBytes    int64   `json:"ckpt_wrote_bytes"`    // second checkpoint: bytes written
	CkptTotalBytes    int64   `json:"ckpt_total_bytes"`    // second checkpoint: full footprint
	CkptRatio         float64 `json:"ckpt_ratio"`          // wrote ÷ total after one-relation update
}

// Report is the BENCH_report.json envelope.
type Report struct {
	Schema         int              `json:"schema"`
	Short          bool             `json:"short"`
	GoVersion      string           `json:"go_version"`
	Benchmarks     []Benchmark      `json:"benchmarks"`
	TraceOverhead  TraceOverhead    `json:"trace_overhead"`
	FlightOverhead FlightOverhead   `json:"flight_overhead"`
	Parallel       ParallelSpeedup  `json:"parallel"`
	PlanCache      PlanCacheSummary `json:"plan_cache"`
	WAL            WALSummary       `json:"wal"`
	Telemetry      TelemetrySummary `json:"telemetry"`
	Insights       InsightsSummary  `json:"insights"`
	MVCC           MVCCSummary      `json:"mvcc"`
}

func main() {
	var (
		short     = flag.Bool("short", false, "CI mode: fewer iterations per benchmark")
		out       = flag.String("out", "BENCH_report.json", "report output path")
		validate  = flag.String("validate", "", "validate an existing report instead of running")
		maxRatio  = flag.Float64("max-trace-overhead", 3.0, "validation bound on traced_ratio")
		maxFlight = flag.Float64("max-flight-overhead", 1.25, "validation bound on flight-recorder ratio")
		compare   = flag.Bool("compare", false, "compare two reports (old.json new.json) and fail on regression")
		maxRegr   = flag.Float64("max-regress", 0.25, "compare mode: max tolerated fractional ns/op growth")
		minPar    = flag.Float64("min-parallel-speedup", 1.5, "validation bound on the B13 sync-family speedup at 4 workers")
		minHit    = flag.Float64("min-plan-cache-hit", 0.9, "validation bound on the B14 cached-family plan cache hit rate")
		minPlan   = flag.Float64("min-plan-speedup", 1.0, "validation bound on the B14 interpreted÷cached speedup")
		maxWAL    = flag.Float64("max-wal-overhead", 1.15, "validation bound on the B15 query-family WAL-on÷WAL-off ratio")
		minAmort  = flag.Float64("min-group-amortize", 1.5, "validation bound on the B15 sync÷group exec amortization")
		maxTelem  = flag.Float64("max-telemetry-overhead", 1.03, "validation bound on the B16 windowed÷off telemetry ratio")
		maxIns    = flag.Float64("max-insights-overhead", 1.03, "validation bound on the B17 digests÷off insights ratio")
		minScale  = flag.Float64("min-read-scaling", 2.5, "validation bound on the B18 snapshot÷serial during-commit read scaling")
		maxCkpt   = flag.Float64("max-ckpt-ratio", 0.25, "validation bound on the B18 incremental checkpoint wrote÷total ratio")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: idlbench -compare [-max-regress f] old.json new.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRegr); err != nil {
			fmt.Fprintln(os.Stderr, "idlbench:", err)
			os.Exit(1)
		}
		return
	}
	if *validate != "" {
		if err := validateReport(*validate, *maxRatio, *maxFlight, *minPar, *minHit, *minPlan, *maxWAL, *minAmort, *maxTelem, *maxIns, *minScale, *maxCkpt); err != nil {
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
	fmt.Printf("%-40s ratio=%.2f (off=%dns metrics=%dns traced=%dns)\n",
		"B12/tracing-overhead", rep.TraceOverhead.TracedRatio,
		rep.TraceOverhead.OffNsPerOp, rep.TraceOverhead.MetricsNsPerOp, rep.TraceOverhead.TracedNsPerOp)
	fmt.Printf("%-40s ratio=%.2f (off=%dns on=%dns)\n",
		"B12/flightrec-overhead", rep.FlightOverhead.Ratio,
		rep.FlightOverhead.OffNsPerOp, rep.FlightOverhead.OnNsPerOp)
	fmt.Printf("%-40s query=%.2fx sync=%.2fx at 4 workers (cpus=%d gomaxprocs=%d)\n",
		"B13/parallel-speedup", rep.Parallel.QuerySpeedup4, rep.Parallel.SyncSpeedup4,
		rep.Parallel.NumCPU, rep.Parallel.GoMaxProcs)
	fmt.Printf("%-40s %.2fx cached over interpreted, hit rate %.3f (interpreted=%dns compile=%dns cached=%dns prepared=%dns)\n",
		"B14/plan-cache-speedup", rep.PlanCache.Speedup, rep.PlanCache.HitRate,
		rep.PlanCache.InterpretedNsPerOp, rep.PlanCache.CompileNsPerOp,
		rep.PlanCache.CachedNsPerOp, rep.PlanCache.PreparedNsPerOp)
	fmt.Printf("%-40s query-ratio=%.2f group-amortize=%.2fx (exec off=%dns sync=%dns group=%dns)\n",
		"B15/wal-overhead", rep.WAL.QueryRatio, rep.WAL.GroupAmortization,
		rep.WAL.ExecOffNsPerOp, rep.WAL.ExecSyncNsPerOp, rep.WAL.ExecGroupNsPerOp)
	fmt.Printf("%-40s windowed-ratio=%.3f (off=%dns metrics=%dns windowed=%dns traced=%dns)\n",
		"B16/telemetry-overhead", rep.Telemetry.WindowedRatio,
		rep.Telemetry.OffNsPerOp, rep.Telemetry.MetricsNsPerOp,
		rep.Telemetry.WindowedNsPerOp, rep.Telemetry.TracedNsPerOp)
	fmt.Printf("%-40s digests-ratio=%.3f (off=%dns digests=%dns capture=%dns)\n",
		"B17/insights-overhead", rep.Insights.DigestsRatio,
		rep.Insights.OffNsPerOp, rep.Insights.DigestsNsPerOp, rep.Insights.CaptureNsPerOp)
	fmt.Printf("%-40s read-scaling=%.0fx (during-commit reads serial=%d mvcc=%d) reader-speedup4=%.2fx ckpt-ratio=%.3f (%d/%d bytes)\n",
		"B18/mvcc", rep.MVCC.ReadScaling,
		rep.MVCC.SerialCommitReads, rep.MVCC.MVCCCommitReads, rep.MVCC.ReaderSpeedup4,
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
// report must still exist in the new one and must not have slowed by
// more than maxRegress (fractional growth in ns/op). New-only
// benchmarks are reported but never fail the gate.
func compareFiles(w *os.File, oldPath, newPath string, maxRegress float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	lines, regressions := compareReports(oldRep, newRep, maxRegress)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%: %v",
			len(regressions), maxRegress*100, regressions)
	}
	fmt.Fprintf(w, "no regressions beyond %.0f%% (%d benchmarks compared)\n",
		maxRegress*100, len(oldRep.Benchmarks))
	return nil
}

// compareReports renders a per-benchmark delta table and returns the
// names of benchmarks whose ns/op grew beyond maxRegress. A benchmark
// present in old but missing from new counts as a regression (a silently
// dropped measurement must not pass the gate).
func compareReports(oldRep, newRep *Report, maxRegress float64) (lines, regressions []string) {
	newBy := map[string]Benchmark{}
	for _, b := range newRep.Benchmarks {
		newBy[b.Name] = b
	}
	oldSeen := map[string]bool{}
	for _, ob := range oldRep.Benchmarks {
		oldSeen[ob.Name] = true
		nb, ok := newBy[ob.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-40s MISSING from new report", ob.Name))
			regressions = append(regressions, ob.Name)
			continue
		}
		delta := float64(nb.NsPerOp-ob.NsPerOp) / float64(ob.NsPerOp)
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			regressions = append(regressions, ob.Name)
		}
		lines = append(lines, fmt.Sprintf("%-40s %10d -> %10d ns/op  %+6.1f%%%s",
			ob.Name, ob.NsPerOp, nb.NsPerOp, delta*100, mark))
	}
	var added []string
	for name := range newBy {
		if !oldSeen[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		lines = append(lines, fmt.Sprintf("%-40s new benchmark (%d ns/op)", name, newBy[name].NsPerOp))
	}
	return lines, regressions
}

// validateReport enforces the CI gate: well-formed JSON with the
// expected schema, every benchmark measured, tracing plus
// flight-recorder overhead under the stated bounds, the B13 sync-family
// parallel speedup above its floor, the B14 plan-cache hit rate and
// repeated-query speedup above theirs, the B16 windowed-telemetry and
// B17 statement-digest taxes under their ceilings, the B18 MVCC read
// scaling and incremental-checkpoint ratio inside their bounds, and the
// evaluator's allocs/op under the fixed ceilings of validateAllocs.
func validateReport(path string, maxRatio, maxFlight, minParallel, minHitRate, minPlanSpeedup, maxWALOverhead, minGroupAmortize, maxTelemetry, maxInsights, minReadScaling, maxCkptRatio float64) error {
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	if rep.Schema != reportSchema {
		return fmt.Errorf("%s: schema %d, want %d", path, rep.Schema, reportSchema)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.Name == "" || b.Iters <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: benchmark %+v not measured", path, b)
		}
		if seen[b.Name] {
			return fmt.Errorf("%s: duplicate benchmark %q", path, b.Name)
		}
		seen[b.Name] = true
	}
	to := rep.TraceOverhead
	if to.OffNsPerOp <= 0 || to.TracedNsPerOp <= 0 {
		return fmt.Errorf("%s: trace overhead not measured", path)
	}
	if to.TracedRatio > maxRatio {
		return fmt.Errorf("%s: tracing overhead ratio %.2f exceeds bound %.2f", path, to.TracedRatio, maxRatio)
	}
	fo := rep.FlightOverhead
	if fo.OffNsPerOp <= 0 || fo.OnNsPerOp <= 0 {
		return fmt.Errorf("%s: flight-recorder overhead not measured", path)
	}
	if fo.Ratio > maxFlight {
		return fmt.Errorf("%s: flight-recorder overhead ratio %.2f exceeds bound %.2f", path, fo.Ratio, maxFlight)
	}
	ps := rep.Parallel
	if ps.QuerySpeedup4 <= 0 || ps.SyncSpeedup4 <= 0 {
		return fmt.Errorf("%s: parallel speedup not measured", path)
	}
	// Only the sync family is gated: it overlaps member latency, so its
	// speedup does not depend on CPU count. The query family's speedup is
	// reported but machine-dependent (≈1.0 when GOMAXPROCS is 1).
	if ps.SyncSpeedup4 < minParallel {
		return fmt.Errorf("%s: parallel sync speedup %.2fx at 4 workers below bound %.2fx", path, ps.SyncSpeedup4, minParallel)
	}
	pc := rep.PlanCache
	if pc.InterpretedNsPerOp <= 0 || pc.CompileNsPerOp <= 0 || pc.CachedNsPerOp <= 0 || pc.PreparedNsPerOp <= 0 {
		return fmt.Errorf("%s: plan-cache families not measured", path)
	}
	if pc.HitRate < minHitRate {
		return fmt.Errorf("%s: plan cache hit rate %.3f below bound %.3f", path, pc.HitRate, minHitRate)
	}
	if pc.Speedup < minPlanSpeedup {
		return fmt.Errorf("%s: plan-cache speedup %.2fx below bound %.2fx", path, pc.Speedup, minPlanSpeedup)
	}
	wl := rep.WAL
	if wl.QueryOffNsPerOp <= 0 || wl.QueryOnNsPerOp <= 0 ||
		wl.ExecOffNsPerOp <= 0 || wl.ExecSyncNsPerOp <= 0 || wl.ExecGroupNsPerOp <= 0 {
		return fmt.Errorf("%s: WAL families not measured", path)
	}
	if wl.QueryRatio > maxWALOverhead {
		return fmt.Errorf("%s: WAL query overhead ratio %.2f exceeds bound %.2f", path, wl.QueryRatio, maxWALOverhead)
	}
	if wl.GroupAmortization < minGroupAmortize {
		return fmt.Errorf("%s: group-commit amortization %.2fx below bound %.2fx", path, wl.GroupAmortization, minGroupAmortize)
	}
	tl := rep.Telemetry
	if tl.OffNsPerOp <= 0 || tl.MetricsNsPerOp <= 0 || tl.WindowedNsPerOp <= 0 || tl.TracedNsPerOp <= 0 {
		return fmt.Errorf("%s: telemetry families not measured", path)
	}
	if tl.WindowedRatio > maxTelemetry {
		return fmt.Errorf("%s: windowed telemetry ratio %.3f exceeds bound %.3f", path, tl.WindowedRatio, maxTelemetry)
	}
	in := rep.Insights
	if in.OffNsPerOp <= 0 || in.DigestsNsPerOp <= 0 || in.CaptureNsPerOp <= 0 {
		return fmt.Errorf("%s: insights families not measured", path)
	}
	if in.DigestsRatio > maxInsights {
		return fmt.Errorf("%s: insights digests ratio %.3f exceeds bound %.3f", path, in.DigestsRatio, maxInsights)
	}
	mv := rep.MVCC
	// SerialCommitReads is legitimately zero — serial readers block for
	// the whole commit; only the snapshot arm must have measured reads.
	if mv.MVCCCommitReads == 0 {
		return fmt.Errorf("%s: MVCC mixed family not measured", path)
	}
	if mv.ReadScaling < minReadScaling {
		return fmt.Errorf("%s: MVCC read scaling %.2fx below bound %.2fx", path, mv.ReadScaling, minReadScaling)
	}
	if mv.CkptWroteBytes <= 0 || mv.CkptTotalBytes <= 0 {
		return fmt.Errorf("%s: incremental checkpoint not measured", path)
	}
	if mv.CkptRatio > maxCkptRatio {
		return fmt.Errorf("%s: incremental checkpoint ratio %.3f exceeds bound %.3f", path, mv.CkptRatio, maxCkptRatio)
	}
	if err := validateAllocs(rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// The allocation budgets -validate holds the evaluator to (DESIGN.md
// §19), so the slot-compiled hot path cannot quietly start allocating
// per element or per row again. Counts, not times: they repeat run to
// run, so the ceilings sit close above the measured values.
const (
	// B1, B3 and B8 evaluate one query per op: allocs/op may not exceed
	// maxAllocsPerEval (evaluator set-up, a transient compile in the
	// no-schedule arm, the answer) plus maxAllocsPerElement for each set
	// element the op scans.
	maxAllocsPerElement = 0.25
	maxAllocsPerEval    = 128
	// B4: one full materialisation of the stock views.
	maxMaterializeAllocs = 15000
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

// measure times fn with a calibrated iteration count, reporting ns/op,
// allocation deltas, and (when e is non-nil) the engine's evaluator
// counters per op.
func measure(name string, short bool, e *core.Engine, fn func()) Benchmark {
	fn() // warm caches, force lazy materialization
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
	// Calibrate from a single timed run.
	t0 := time.Now()
	fn()
	per := time.Since(t0)
	iters := minIters
	if per > 0 && int(target/per) > iters {
		iters = int(target / per)
	}
	if iters > 1<<20 {
		iters = 1 << 20
	}
	// Best of the batches: scheduler or GC interference inflates a
	// batch but never deflates one, so the minimum is the stable
	// estimate (and the one overhead ratios should compare).
	var best time.Duration
	var msBefore, msAfter runtime.MemStats
	var allocs, bytes uint64
	for rep := 0; rep < batches; rep++ {
		runtime.GC()
		if e != nil {
			e.ResetStats()
		}
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if rep == 0 || elapsed < best {
			best = elapsed
			allocs = msAfter.Mallocs - msBefore.Mallocs
			bytes = msAfter.TotalAlloc - msBefore.TotalAlloc
		}
	}
	b := Benchmark{
		Name:        name,
		Iters:       iters,
		NsPerOp:     best.Nanoseconds() / int64(iters),
		AllocsPerOp: allocs / uint64(iters),
		BytesPerOp:  bytes / uint64(iters),
	}
	if b.NsPerOp <= 0 {
		b.NsPerOp = 1 // sub-ns loops still count as measured
	}
	if e != nil {
		st := e.Stats()
		b.Counters = map[string]uint64{
			"elements_scanned": st.ElementsScanned / uint64(iters),
			"index_probes":     st.IndexProbes / uint64(iters),
			"index_builds":     st.IndexBuilds / uint64(iters),
			"attr_enums":       st.AttrEnums / uint64(iters),
		}
	}
	return b
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

// runAll executes B1–B12. The set mirrors bench_test.go on one
// representative configuration per benchmark, so a snapshot stays
// comparable to `go test -bench` output.
func runAll(short bool) *Report {
	rep := &Report{Schema: reportSchema, Short: short, GoVersion: runtime.Version()}
	add := func(b Benchmark) { rep.Benchmarks = append(rep.Benchmarks, b) }
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
			add(measure("B1/anyAbove/"+schema, short, e, func() { run(e) }))
		}
	}

	// B2: cross-database join chwab × ource.
	{
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 9}, core.DefaultOptions())
		run := mustQuery(stocks.QueryCrossJoin)
		add(measure("B2/crossJoin", short, e, func() { run(e) }))
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
		add(measure(name, short, e, func() { run(e) }))
	}

	// B4: view materialization, semi-naive vs naive.
	for _, semi := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.SemiNaive = semi
		e, _ := engineFor(stocks.Config{Stocks: 16, Days: 20, Seed: 17}, opts)
		mustAddRules(e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...)...)
		name := "B4/materialize/naive"
		if semi {
			name = "B4/materialize/seminaive"
		}
		add(measure(name, short, e, func() {
			e.Invalidate()
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}))
	}

	// B5: higher-order view fan-out (one derived relation per stock).
	{
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 5, Seed: 19}, core.DefaultOptions())
		mustAddRules(e, stocks.RulesUnified...)
		mustAddRules(e, ".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)")
		add(measure("B5/fanout", short, e, func() {
			e.Invalidate()
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}))
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
		add(measure("B6/insStk", short, e, func() {
			src := fmt.Sprintf("?.dbU.insStk(.stk=new%06d, .date=1/2/86, .price=%d)", i, 10+i%100)
			i++
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			if _, err := e.Execute(q); err != nil {
				panic(err)
			}
		}))
	}

	// B7: Figure 1 round trip (build engine + rules + materialize).
	{
		add(measure("B7/roundTrip", short, nil, func() {
			e, _ := engineFor(stocks.Config{Stocks: 8, Days: 10, Seed: 29}, core.DefaultOptions())
			mustAddRules(e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...)...)
			if _, err := e.EffectiveUniverse(); err != nil {
				panic(err)
			}
		}))
	}

	// B8: ablations on a point query.
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.DefaultOptions()},
		{"no-index", func() core.Options { o := core.DefaultOptions(); o.UseIndex = false; return o }()},
		{"no-schedule", func() core.Options { o := core.DefaultOptions(); o.NoSchedule = true; return o }()},
	} {
		e, _ := engineFor(stocks.Config{Stocks: 64, Days: 60, Seed: 31}, tc.opts)
		run := mustQuery("?.euter.r(.stkCode=stk033, .date=D, .clsPrice=P)")
		add(measure("B8/point/"+tc.name, short, e, func() { run(e) }))
	}

	// B9: view maintenance after an additive update — by delta (the
	// engine's refresh) vs from scratch (Invalidate forces it).
	for _, full := range []bool{false, true} {
		e, _ := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 37}, core.DefaultOptions())
		mustAddRules(e, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
		run := mustQuery("?.dbI.p(.stk=stk001)")
		run(e)
		name := "B9/maintenance/delta"
		if full {
			name = "B9/maintenance/full"
		}
		i := 0
		add(measure(name, short, e, func() {
			src := fmt.Sprintf("?.euter.r+(.date=1/2/86, .stkCode=inc%06d, .clsPrice=%d)", i, i%100)
			i++
			q, err := parser.ParseQuery(src)
			if err != nil {
				panic(err)
			}
			if _, err := e.Execute(q); err != nil {
				panic(err)
			}
			if full {
				e.Invalidate()
			}
			run(e)
		}))
	}

	// B10 (ctx plumbing, PR-1's B11): bare Query vs QueryCtx.
	{
		e, ds := engineFor(stocks.Config{Stocks: n, Days: 30, Seed: 7}, core.DefaultOptions())
		src := stocks.QueryAnyAbove(ds.MaxPrice() * 3 / 4)["euter"]
		run := mustQuery(src)
		add(measure("B10/ctx/bare", short, e, func() { run(e) }))
	}

	// B11 + B12: observability overhead on the E5 highest-close query —
	// off (nil registry and tracer: the production default), metrics
	// attached, and metrics plus span tracing with per-conjunct probes.
	{
		src := stocks.QueryHighestPerDay()["euter"]
		newE := func() *core.Engine {
			e, _ := engineFor(stocks.Config{Stocks: 16, Days: 20, Seed: 43}, core.DefaultOptions())
			return e
		}
		eOff := newE()
		runOff := mustQuery(src)
		off := measure("B11/obs/off", short, eOff, func() { runOff(eOff) })
		add(off)

		eMet := newE()
		eMet.SetMetrics(obs.NewRegistry())
		runMet := mustQuery(src)
		met := measure("B11/obs/metrics", short, eMet, func() { runMet(eMet) })
		add(met)

		eTr := newE()
		eTr.SetMetrics(obs.NewRegistry())
		eTr.SetTracer(obs.NewTracer(4))
		runTr := mustQuery(src)
		tr := measure("B12/obs/traced", short, eTr, func() { runTr(eTr) })
		add(tr)

		rep.TraceOverhead = TraceOverhead{
			OffNsPerOp:     off.NsPerOp,
			MetricsNsPerOp: met.NsPerOp,
			TracedNsPerOp:  tr.NsPerOp,
			TracedRatio:    float64(tr.NsPerOp) / float64(off.NsPerOp),
		}
	}

	// B12 (flight recorder): the same E5 query at the DB layer — where
	// events are recorded — with the ring off and at default capacity,
	// tracing and metrics off. The recorder is the only always-on sink,
	// so this ratio is the observability tax every query pays.
	{
		src := stocks.QueryHighestPerDay()["euter"]
		newDB := func(ring int) *idl.DB {
			db := idl.Open()
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
			db.SetFlightRecorderSize(ring)
			return db
		}
		runQ := func(db *idl.DB) {
			if _, err := db.Query(src); err != nil {
				panic(err)
			}
		}
		dbOff := newDB(0)
		off := measure("B12/flightrec/off", short, dbOff.Engine(), func() { runQ(dbOff) })
		add(off)
		dbOn := newDB(256)
		on := measure("B12/flightrec/on", short, dbOn.Engine(), func() { runQ(dbOn) })
		add(on)
		rep.FlightOverhead = FlightOverhead{
			OffNsPerOp: off.NsPerOp,
			OnNsPerOp:  on.NsPerOp,
			Ratio:      float64(on.NsPerOp) / float64(off.NsPerOp),
		}
	}

	// B13: parallel evaluation speedup at 1/2/4/8 workers, two families.
	// The query family partitions a large negated self-join scan; its
	// speedup tracks GOMAXPROCS. The sync family refreshes three slow
	// federated members (every source operation stalls 2ms); concurrent
	// fetches overlap the stalls, so its speedup holds on one CPU.
	{
		workerCounts := []int{1, 2, 4, 8}
		src := "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"
		queryNs := map[int]int64{}
		for _, w := range workerCounts {
			opts := core.DefaultOptions()
			opts.Workers = w
			e, _ := engineFor(stocks.Config{Stocks: 48, Days: 40, Seed: 47}, opts)
			run := mustQuery(src)
			b := measure(fmt.Sprintf("B13/query/w%d", w), short, e, func() { run(e) })
			add(b)
			queryNs[w] = b.NsPerOp
		}
		syncNs := map[int]int64{}
		for _, w := range workerCounts {
			db := slowFederationDB(w)
			b := measure(fmt.Sprintf("B13/sync/w%d", w), short, nil, func() {
				if _, err := db.Sync(context.Background()); err != nil {
					panic(err)
				}
			})
			add(b)
			syncNs[w] = b.NsPerOp
		}
		rep.Parallel = ParallelSpeedup{
			NumCPU:        runtime.NumCPU(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			QuerySpeedup4: float64(queryNs[1]) / float64(queryNs[4]),
			SyncSpeedup4:  float64(syncNs[1]) / float64(syncNs[4]),
		}
	}

	// B14: plan caching on a repeated-query workload. One op runs a fixed
	// batch of selective point queries (index probes, cheap execution, so
	// planning work is a visible fraction) in four families: interpreted
	// recomputes the scheduling analysis per evaluation, compile builds a
	// fresh plan per evaluation with the cache off, cached reuses
	// epoch-validated plans, prepared compiles once via Engine.Prepare and
	// only revalidates. All four answer byte-identically (the difftest
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
		ns := map[string]int64{}
		for _, fam := range []struct {
			name string
			opts func() core.Options
		}{
			{"interpreted", func() core.Options { o := core.DefaultOptions(); o.Interpret = true; return o }},
			{"compile", func() core.Options { o := core.DefaultOptions(); o.NoPlanCache = true; return o }},
			{"cached", core.DefaultOptions},
		} {
			e, _ := engineFor(b14cfg, fam.opts())
			b := measure("B14/plancache/"+fam.name, short, e, func() { runBatch(e) })
			add(b)
			ns[fam.name] = b.NsPerOp
			if fam.name == "cached" {
				st := e.PlanCacheStats()
				if total := st.Hits + st.Misses; total > 0 {
					rep.PlanCache.HitRate = float64(st.Hits) / float64(total)
				}
			}
		}
		{
			e, _ := engineFor(b14cfg, core.DefaultOptions())
			pqs := make([]*core.PreparedQuery, batch)
			for i, q := range parsed {
				pq, err := e.Prepare(q)
				if err != nil {
					panic(err)
				}
				pqs[i] = pq
			}
			b := measure("B14/plancache/prepared", short, e, func() {
				for _, pq := range pqs {
					if _, err := pq.Query(); err != nil {
						panic(err)
					}
				}
			})
			add(b)
			ns["prepared"] = b.NsPerOp
		}
		rep.PlanCache.InterpretedNsPerOp = ns["interpreted"]
		rep.PlanCache.CompileNsPerOp = ns["compile"]
		rep.PlanCache.CachedNsPerOp = ns["cached"]
		rep.PlanCache.PreparedNsPerOp = ns["prepared"]
		rep.PlanCache.Speedup = float64(ns["interpreted"]) / float64(ns["cached"])
	}

	// B15: the durability tax. Query family runs the same E5 query at the
	// DB layer with and without a WAL attached — queries never append, so
	// the ratio bounds the bookkeeping a durable session pays on its read
	// path and should sit near 1.0. Exec family runs unique-key inserts
	// (every op commits one tuple, so every op appends and, in sync mode,
	// fsyncs) under no WAL, per-commit fsync, and group commit; the
	// sync÷group ratio is what deferring fsync to the 64 KiB group
	// threshold buys back.
	{
		populate := func(db *idl.DB) {
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
		}
		src := stocks.QueryHighestPerDay()["euter"]
		runQ := func(db *idl.DB) {
			if _, err := db.Query(src); err != nil {
				panic(err)
			}
		}
		withWALDB := func(mode idl.Durability, fn func(db *idl.DB)) {
			dir, err := os.MkdirTemp("", "idlbench-wal-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			db, _, err := idl.OpenWAL(dir, idl.WALOptions{Durability: mode})
			if err != nil {
				panic(err)
			}
			defer db.Close()
			fn(db)
		}

		dbOff := idl.Open()
		populate(dbOff)
		qoff := measure("B15/wal/query-off", short, dbOff.Engine(), func() { runQ(dbOff) })
		add(qoff)
		var qon Benchmark
		withWALDB(idl.DurabilitySync, func(db *idl.DB) {
			populate(db)
			qon = measure("B15/wal/query-on", short, db.Engine(), func() { runQ(db) })
		})
		add(qon)

		// Unique keys per op: duplicate inserts would commit zero changes
		// and skip the append, measuring nothing.
		var seq int
		runExec := func(db *idl.DB) {
			seq++
			stmt := fmt.Sprintf("?.euter.r+(.date=3/1/85,.stkCode=b%d,.clsPrice=%d)", seq, 10+seq%90)
			if _, err := db.Exec(stmt); err != nil {
				panic(err)
			}
		}
		dbEOff := idl.Open()
		populate(dbEOff)
		eoff := measure("B15/wal/exec-off", short, dbEOff.Engine(), func() { runExec(dbEOff) })
		add(eoff)
		var esync, egroup Benchmark
		withWALDB(idl.DurabilitySync, func(db *idl.DB) {
			populate(db)
			seq = 0
			esync = measure("B15/wal/exec-sync", short, db.Engine(), func() { runExec(db) })
		})
		add(esync)
		withWALDB(idl.DurabilityGroup, func(db *idl.DB) {
			populate(db)
			seq = 0
			egroup = measure("B15/wal/exec-group", short, db.Engine(), func() { runExec(db) })
		})
		add(egroup)

		rep.WAL = WALSummary{
			QueryOffNsPerOp:   qoff.NsPerOp,
			QueryOnNsPerOp:    qon.NsPerOp,
			QueryRatio:        float64(qon.NsPerOp) / float64(qoff.NsPerOp),
			ExecOffNsPerOp:    eoff.NsPerOp,
			ExecSyncNsPerOp:   esync.NsPerOp,
			ExecGroupNsPerOp:  egroup.NsPerOp,
			GroupAmortization: float64(esync.NsPerOp) / float64(egroup.NsPerOp),
		}
	}

	// B16: the windowed-telemetry tax. The E5 query runs with telemetry
	// escalating through its four levels: no registry, cumulative-only
	// (windowed instruments gated off), the windowed default (rolling
	// histograms + SLO classification per operation), and windowed plus
	// span tracing. The gated ratio is windowed ÷ off — the full price of
	// live rolling quantiles and burn rates over an uninstrumented engine.
	{
		src := stocks.QueryHighestPerDay()["euter"]
		newE := func() *core.Engine {
			e, _ := engineFor(stocks.Config{Stocks: 16, Days: 20, Seed: 43}, core.DefaultOptions())
			return e
		}
		eOff := newE()
		runOff := mustQuery(src)
		off := measure("B16/telemetry/off", short, eOff, func() { runOff(eOff) })
		add(off)

		eMet := newE()
		rMet := obs.NewRegistry()
		rMet.SetWindowed(false)
		eMet.SetMetrics(rMet)
		runMet := mustQuery(src)
		met := measure("B16/telemetry/metrics", short, eMet, func() { runMet(eMet) })
		add(met)

		eWin := newE()
		eWin.SetMetrics(obs.NewRegistry()) // windowed instruments default on
		runWin := mustQuery(src)
		win := measure("B16/telemetry/windowed", short, eWin, func() { runWin(eWin) })
		add(win)

		eTr := newE()
		eTr.SetMetrics(obs.NewRegistry())
		eTr.SetTracer(obs.NewTracer(4))
		runTr := mustQuery(src)
		tr := measure("B16/telemetry/traced", short, eTr, func() { runTr(eTr) })
		add(tr)

		rep.Telemetry = TelemetrySummary{
			OffNsPerOp:      off.NsPerOp,
			MetricsNsPerOp:  met.NsPerOp,
			WindowedNsPerOp: win.NsPerOp,
			TracedNsPerOp:   tr.NsPerOp,
			WindowedRatio:   float64(win.NsPerOp) / float64(off.NsPerOp),
		}
	}

	// B17: the statement-digest tax. The E5 query runs at the DB layer —
	// where the insights store observes — three ways: a plain DB (off), a
	// DB with the digest store enabled but capture off (the production
	// default: per-op fingerprint, atomic counter and windowed-histogram
	// updates), and a DB whose slow threshold fires on every op, so each
	// query also snapshots a flight-recorder exemplar into the digest's
	// ring (the worst case; captures are bounded per digest in practice).
	// The gated ratio is digests ÷ off.
	{
		src := stocks.QueryHighestPerDay()["euter"]
		newDB := func(cfg *idl.InsightsConfig) *idl.DB {
			db := idl.Open()
			ds := stocks.Generate(stocks.Config{Stocks: 16, Days: 20, Seed: 43})
			ds.Populate(db.Engine().Base())
			db.Engine().Invalidate()
			if cfg != nil {
				db.EnableInsights(*cfg)
			}
			return db
		}
		runQ := func(db *idl.DB) {
			if _, err := db.Query(src); err != nil {
				panic(err)
			}
		}
		dbOff := newDB(nil)
		off := measure("B17/insights/off", short, dbOff.Engine(), func() { runQ(dbOff) })
		add(off)
		dbDig := newDB(&idl.InsightsConfig{})
		dig := measure("B17/insights/digests", short, dbDig.Engine(), func() { runQ(dbDig) })
		add(dig)
		dbCap := newDB(&idl.InsightsConfig{SlowThreshold: time.Nanosecond})
		capt := measure("B17/insights/capture", short, dbCap.Engine(), func() { runQ(dbCap) })
		add(capt)
		rep.Insights = InsightsSummary{
			OffNsPerOp:     off.NsPerOp,
			DigestsNsPerOp: dig.NsPerOp,
			CaptureNsPerOp: capt.NsPerOp,
			DigestsRatio:   float64(dig.NsPerOp) / float64(off.NsPerOp),
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
			readerNs := map[int]int64{}
			for _, readers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("B18/mvcc/readers/%d", readers)
				fn := runRead
				if readers == 1 {
					name = "B18/mvcc/readers/serial"
				} else {
					n := readers
					fn = func() {
						var wg sync.WaitGroup
						for i := 0; i < n; i++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								runRead()
							}()
						}
						wg.Wait()
					}
				}
				b := measure(name, short, e, fn)
				add(b)
				readerNs[readers] = b.NsPerOp
			}
			rep.MVCC.NumCPU = runtime.NumCPU()
			rep.MVCC.GoMaxProcs = runtime.GOMAXPROCS(0)
			rep.MVCC.ReaderSpeedup4 = float64(readerNs[1]*4) / float64(readerNs[4])
		}

		// Mixed: can four readers make progress while a commit is in
		// flight? Each round starts one writer statement whose negated
		// self-join scan holds the engine mutex for several milliseconds,
		// waits for the writer to be inside its critical section, then
		// releases the readers and counts only reads that FINISH before
		// the statement does. Serial readers block on the mutex for the
		// whole commit (count ~0); snapshot readers keep reading the
		// published head. Counting completions during the commit — rather
		// than free-running throughput over a window — is what makes the
		// gate hold on one CPU: a blocked reader's timeslice goes back to
		// the writer, so wall-clock aggregate rates converge between the
		// arms even though the serial arm spends every commit frozen. The
		// readers go through idl.DB.Query — parse, statement pipeline and
		// all — because that is what callers call: a facade that took the
		// engine mutex for its own bookkeeping would freeze the snapshot
		// arm too, and the gate must see it.
		commitReads := func(serial bool) uint64 {
			opts := core.DefaultOptions()
			opts.SerialReads = serial
			db := idl.OpenWithOptions(opts)
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
							// Completions after the statement finished (the
							// serial arm's unblocked stragglers) don't count.
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
				// invalidated it); on the serial engine this is a plain read.
				read()
			}
			return during.Load()
		}
		rep.MVCC.SerialCommitReads = commitReads(true)
		rep.MVCC.MVCCCommitReads = commitReads(false)
		rep.MVCC.ReadScaling = float64(rep.MVCC.MVCCCommitReads) / float64(max(rep.MVCC.SerialCommitReads, 1))

		// Checkpoint ratio: full checkpoint, single-relation update,
		// checkpoint again; the second checkpoint's wrote ÷ total bytes is
		// the incremental ratio (every unchanged relation segment reused).
		{
			dir, err := os.MkdirTemp("", "idlbench-ckpt-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			db, _, err := idl.OpenWAL(dir, idl.WALOptions{Durability: idl.DurabilitySync})
			if err != nil {
				panic(err)
			}
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
