package core

import (
	"context"
	"slices"

	"idl/internal/ast"
	"idl/internal/obs"
	"idl/internal/qlog"
)

// engineMetrics caches every engine-level metric pointer. A nil
// *engineMetrics means no registry is attached; operation paths check
// that single pointer.
type engineMetrics struct {
	elementsScanned *obs.Counter
	indexProbes     *obs.Counter
	indexCandidates *obs.Counter
	indexBuilds     *obs.Counter
	attrEnums       *obs.Counter

	matCount        *obs.Counter
	matDelta        *obs.Counter
	matIterations   *obs.Counter
	matRuleRuns     *obs.Counter
	matFactsDerived *obs.Counter
	matCandidates   *obs.Counter
	matLatency      *obs.Histogram

	programCalls *obs.Counter

	// Parallel evaluation instruments (parallel.go): how many workers
	// are evaluating right now, how many scan partitions and parallel
	// operations were dispatched, and how long chunk-order merges take.
	workerBusy   *obs.Gauge
	partitions   *obs.Counter
	parallelOps  *obs.Counter
	mergeLatency *obs.Histogram

	// Plan-cache instruments (plan.go): cache hits (including re-ranked
	// "stale" plans), misses (fresh compiles), LRU evictions, and how
	// long each compile took.
	planCacheHit   *obs.Counter
	planCacheMiss  *obs.Counter
	planCacheEvict *obs.Counter
	planCompile    *obs.Histogram

	// MVCC instruments (version.go): how many snapshot versions are
	// retained and their estimated logical footprint.
	mvccLiveVersions  *obs.Gauge
	mvccRetainedBytes *obs.Gauge
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	return &engineMetrics{
		elementsScanned: r.Counter("engine.eval.elements_scanned"),
		indexProbes:     r.Counter("engine.eval.index_probes"),
		indexCandidates: r.Counter("engine.eval.index_candidates"),
		indexBuilds:     r.Counter("engine.eval.index_builds"),
		attrEnums:       r.Counter("engine.eval.attr_enums"),
		matCount:        r.Counter("engine.materialize.count"),
		matDelta:        r.Counter("engine.materialize.delta"),
		matIterations:   r.Counter("engine.materialize.iterations"),
		matRuleRuns:     r.Counter("engine.materialize.rule_runs"),
		matFactsDerived: r.Counter("engine.materialize.facts_derived"),
		matCandidates:   r.Counter("engine.materialize.decree_candidates"),
		matLatency:      r.Histogram("engine.materialize.latency"),
		programCalls:    r.Counter("engine.program.calls"),
		workerBusy:      r.Gauge("engine.eval.worker_busy"),
		partitions:      r.Counter("engine.eval.partitions"),
		parallelOps:     r.Counter("engine.eval.parallel_ops"),
		mergeLatency:    r.Histogram("engine.eval.merge_latency"),
		planCacheHit:    r.Counter("engine.plan.cache_hit"),
		planCacheMiss:   r.Counter("engine.plan.cache_miss"),
		planCacheEvict:  r.Counter("engine.plan.evict"),
		planCompile:     r.Histogram("engine.plan.compile_ns"),

		mvccLiveVersions:  r.Gauge("mvcc.live_versions"),
		mvccRetainedBytes: r.Gauge("mvcc.retained_bytes"),
	}
}

// evalWork publishes evaluator counters accumulated by one operation.
func (em *engineMetrics) evalWork(local Stats) {
	em.elementsScanned.Add(local.ElementsScanned)
	em.indexProbes.Add(local.IndexProbes)
	em.indexCandidates.Add(local.IndexCandidates)
	em.indexBuilds.Add(local.IndexBuilds)
	em.attrEnums.Add(local.AttrEnums)
}

// SetMetrics attaches a metrics registry (nil detaches). Evaluations
// publish their work — scans, probes, view refreshes, plan compiles,
// parallel dispatch — under the engine.* namespace; a statement's count
// and latency are the facade's, which times each statement once. The
// published MVCC head is dropped because snapshots capture the metric
// hooks they report through.
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = r
	e.em = newEngineMetrics(r)
	e.invalidateHead()
}

// Metrics returns the attached registry, possibly nil.
func (e *Engine) Metrics() *obs.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

// SetTracer attaches a span tracer (nil detaches). Traced operations
// build hierarchical spans: queries get per-conjunct children, view
// materializations per-round children, update requests a program call
// tree. The published MVCC head is dropped because snapshots capture the
// tracer their readers file spans into.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = t
	e.invalidateHead()
}

// Tracer returns the attached tracer, possibly nil.
func (e *Engine) Tracer() *obs.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// annotateTraceID joins a span to the operation that opened it: when
// the caller's context carries a trace ID, the span gets a "trace"
// annotation matching the flight-recorder event's, the journal
// record's and the event log's, so a trace tree can be correlated with
// all three.
func annotateTraceID(span *obs.Span, ctx context.Context) {
	if span == nil {
		return
	}
	if tid := qlog.TraceID(ctx); tid != "" {
		span.SetStr("trace", tid)
	}
}

// attachConjunctSpans converts analyze probes into per-conjunct child
// spans, in source order. Durations are each conjunct's self time. Labels
// render the read's own literals, not those of the statement its shared
// plan was compiled for.
func attachConjunctSpans(span *obs.Span, an *bodyAnalysis, analyze *analyzeState) {
	if analyze.top == nil {
		return
	}
	var lits *Env
	if len(an.sc.lits) > 0 {
		lits = an.newEnv()
	}
	steps := analyze.top.steps
	for src, c := range an.body.Conjuncts {
		i := slices.IndexFunc(steps, func(st step) bool { return st.src == src })
		p := &analyze.probes[i]
		label := c
		if lits != nil {
			label = unlift(c, lits)
		}
		span.AddChild(conjunctLabel(label), p.selfTime).
			SetInt("rows", int64(p.rows)).
			SetInt("scanned", int64(p.scanned)).
			SetInt("index_probes", int64(p.indexProbes))
	}
}

// conjunctLabel renders a conjunct for span trees, truncated so one
// monster conjunct cannot flood the output.
func conjunctLabel(c ast.Expr) string {
	s := c.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
